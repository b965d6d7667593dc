/**
 * @file
 * Microbenchmark of the node inbox (the bounded lock-free MPSC ring)
 * and the latency paths around it: the reply-bypass ablation and the
 * socket tier's round trip.
 *
 * Shapes, all in real (wall-clock) nanoseconds:
 *  - rpc: Endpoint::call round trips between two nodes' app threads —
 *    the service-thread round-trip latency every LRC access miss and
 *    lock hand-off pays. Measured per-iteration, so the table carries
 *    p50/p99 alongside the mean: the bypass mostly compresses the
 *    tail (the reply's futex double hop through the responder's
 *    service thread).
 *  - rpc ablation: the same round trip with the caller's reply
 *    receiver deregistered (as Endpoint::stop does) — every reply
 *    funnels through the caller's inbox and service thread like any
 *    message.
 *  - fanin: 7 producer threads blasting one consumer — the batched
 *    diff/timestamp request traffic shape, measuring throughput
 *    (informational: an absolute, host-dependent number).
 *
 * Emits BENCH_net.json (tracked in the repo) so the inbox latency
 * trajectory is visible across PRs; tools/bench_gate.py gates its
 * same-host ratios.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "driver/proc_launcher.hh"
#include "net/endpoint.hh"
#include "net/network.hh"
#include "net/serde.hh"
#include "net/socket_transport.hh"

using namespace dsm;

namespace {

struct RpcResult
{
    double meanNs;
    double p50Ns;
    double p99Ns;
};

RpcResult
rpcRoundTrip(int iters, bool bypass)
{
    CostModel cm;
    Network net(2, cm);
    VirtualClock clocks[2];
    NodeStats stats[2];
    Endpoint a(net, 0, clocks[0], stats[0]);
    Endpoint b(net, 1, clocks[1], stats[1]);
    b.setHandler([&](Message &msg) {
        b.reply(msg.src, MsgType::LockGrant, {}, msg.replyToken);
    });
    a.setHandler([](Message &) {});
    a.start();
    if (!bypass)
        net.setReplyReceiver(0, nullptr); // every reply takes the inbox
    b.start();

    // Warm up the path (thread creation, first futex round trips).
    for (int i = 0; i < 2000; ++i)
        a.call(1, MsgType::LockRequest, {});

    std::vector<double> samples(static_cast<std::size_t>(iters));
    for (int i = 0; i < iters; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        a.call(1, MsgType::LockRequest, {});
        const auto t1 = std::chrono::steady_clock::now();
        samples[static_cast<std::size_t>(i)] =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
    }

    a.stop();
    b.stop();
    net.shutdown();

    double sum = 0.0;
    for (double s : samples)
        sum += s;
    std::sort(samples.begin(), samples.end());
    RpcResult r;
    r.meanNs = sum / iters;
    r.p50Ns = samples[samples.size() / 2];
    r.p99Ns = samples[samples.size() * 99 / 100];
    return r;
}

/** The tier-1 point of the rpc shape: the same Endpoint::call round
 *  trip, but over a pair of Unix-domain SocketTransports — what a
 *  DSM_TRANSPORT=socket cluster pays per miss instead of a ring push.
 *  Both transports live in this process (the frame path, reader
 *  threads and receiver-side bypass are identical to the forked
 *  layout; only the fork is skipped). */
RpcResult
rpcRoundTripSocket(int iters)
{
    CostModel cm;
    const std::string dir = makeRendezvousDir();
    std::vector<double> samples(static_cast<std::size_t>(iters));
    {
        SocketTransport ta(0, 2, cm, SocketKind::Unix, dir);
        SocketTransport tb(1, 2, cm, SocketKind::Unix, dir);
        std::thread dial_b([&] { tb.connectPeers(); });
        ta.connectPeers();
        dial_b.join();

        VirtualClock clocks[2];
        NodeStats stats[2];
        Endpoint a(ta, 0, clocks[0], stats[0]);
        Endpoint b(tb, 1, clocks[1], stats[1]);
        b.setHandler([&](Message &msg) {
            b.reply(msg.src, MsgType::LockGrant, {}, msg.replyToken);
        });
        a.setHandler([](Message &) {});
        a.start();
        b.start();

        for (int i = 0; i < 2000; ++i)
            a.call(1, MsgType::LockRequest, {});

        for (int i = 0; i < iters; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            a.call(1, MsgType::LockRequest, {});
            const auto t1 = std::chrono::steady_clock::now();
            samples[static_cast<std::size_t>(i)] =
                std::chrono::duration<double, std::nano>(t1 - t0)
                    .count();
        }

        std::thread finish_b([&] { tb.finishRun(); });
        ta.finishRun();
        finish_b.join();
        a.stop();
        b.stop();
    }
    removeRendezvousDir(dir);

    double sum = 0.0;
    for (double s : samples)
        sum += s;
    std::sort(samples.begin(), samples.end());
    RpcResult r;
    r.meanNs = sum / iters;
    r.p50Ns = samples[samples.size() / 2];
    r.p99Ns = samples[samples.size() * 99 / 100];
    return r;
}

double
faninNsPerMsg(int producers, int per_producer)
{
    CostModel cm;
    Network net(producers + 1, cm);
    const int total = producers * per_producer;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            NodeStats stats;
            for (int i = 0; i < per_producer; ++i) {
                Message m;
                m.src = 1 + p;
                m.dst = 0;
                m.type = MsgType::LockRequest;
                m.replyToken = static_cast<std::uint64_t>(i) + 1;
                net.send(std::move(m), stats);
            }
        });
    }
    Message out;
    for (int i = 0; i < total; ++i) {
        if (!net.recv(0, out))
            break;
    }
    for (auto &t : threads)
        t.join();
    const auto end = std::chrono::steady_clock::now();
    net.shutdown();
    return std::chrono::duration<double, std::nano>(end - start)
               .count() /
           total;
}

} // namespace

int
main()
{
    const int rpc_iters = 20000;
    const int producers = 7;
    const int per_producer = 60000;

    std::printf("=== micro_net: MPSC ring inbox latency, reply bypass, "
                "socket tier ===\n");

    const RpcResult rpc_ring = rpcRoundTrip(rpc_iters, true);
    const RpcResult rpc_ring_nobypass = rpcRoundTrip(rpc_iters, false);
    const RpcResult rpc_socket = rpcRoundTripSocket(rpc_iters);
    const double fan_ring = faninNsPerMsg(producers, per_producer);

    std::printf("%-30s %10s %10s %10s\n", "shape", "mean ns", "p50 ns",
                "p99 ns");
    std::printf("%-30s %10.0f %10.0f %10.0f\n", "rpc ring + bypass",
                rpc_ring.meanNs, rpc_ring.p50Ns, rpc_ring.p99Ns);
    std::printf("%-30s %10.0f %10.0f %10.0f\n", "rpc ring, no bypass",
                rpc_ring_nobypass.meanNs, rpc_ring_nobypass.p50Ns,
                rpc_ring_nobypass.p99Ns);
    std::printf("%-30s %10.0f %10.0f %10.0f\n", "rpc socket (UDS)",
                rpc_socket.meanNs, rpc_socket.p50Ns, rpc_socket.p99Ns);
    std::printf("%-30s %9.2fx\n", "bypass speedup (ring rpc)",
                rpc_ring_nobypass.meanNs / rpc_ring.meanNs);
    std::printf("%-30s %9.2fx\n", "ring/socket rpc p50 ratio",
                rpc_ring.p50Ns / rpc_socket.p50Ns);
    std::printf("%-30s %10.0f\n", "fan-in ring ns/msg", fan_ring);

    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"rpc_iters\": %d,\n"
        "  \"fanin_producers\": %d,\n"
        "  \"fanin_msgs_per_producer\": %d,\n"
        "  \"rpc_roundtrip_ring_ns\": %.0f,\n"
        "  \"rpc_roundtrip_ring_p50_ns\": %.0f,\n"
        "  \"rpc_roundtrip_ring_p99_ns\": %.0f,\n"
        "  \"rpc_roundtrip_ring_nobypass_ns\": %.0f,\n"
        "  \"rpc_roundtrip_ring_nobypass_p50_ns\": %.0f,\n"
        "  \"rpc_roundtrip_ring_nobypass_p99_ns\": %.0f,\n"
        "  \"rpc_roundtrip_socket_ns\": %.0f,\n"
        "  \"rpc_roundtrip_socket_p50_ns\": %.0f,\n"
        "  \"rpc_roundtrip_socket_p99_ns\": %.0f,\n"
        "  \"rpc_ring_vs_socket_p50\": %.3f,\n"
        "  \"rpc_bypass_speedup\": %.2f,\n"
        "  \"fanin_ring_ns_per_msg\": %.0f\n"
        "}\n",
        rpc_iters, producers, per_producer, rpc_ring.meanNs,
        rpc_ring.p50Ns, rpc_ring.p99Ns, rpc_ring_nobypass.meanNs,
        rpc_ring_nobypass.p50Ns, rpc_ring_nobypass.p99Ns,
        rpc_socket.meanNs, rpc_socket.p50Ns, rpc_socket.p99Ns,
        rpc_ring.p50Ns / rpc_socket.p50Ns,
        rpc_ring_nobypass.meanNs / rpc_ring.meanNs, fan_ring);

    const char *out_path = "BENCH_net.json";
    if (FILE *f = std::fopen(out_path, "w")) {
        std::fputs(json, f);
        std::fclose(f);
        std::printf("\nwrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    return 0;
}
