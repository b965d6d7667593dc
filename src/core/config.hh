/**
 * @file
 * Named configurations of the design space the paper explores:
 * consistency model x write trapping x write collection (Table 1).
 * The combination compiler-instrumentation + diffing is excluded, as
 * in the paper, because it would pay the memory overhead of both the
 * software dirty bits and the diffs.
 */

#ifndef DSM_CORE_CONFIG_HH
#define DSM_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "time/cost_model.hh"

namespace dsm {

enum class Model : std::uint8_t { EC, LRC };

enum class TrapMethod : std::uint8_t
{
    CompilerInstrumentation,
    Twinning,
};

enum class CollectMethod : std::uint8_t
{
    Timestamping,
    Diffing,
};

const char *toString(Model model);
const char *toString(TrapMethod trap);
const char *toString(CollectMethod collect);

struct RuntimeConfig
{
    Model model = Model::LRC;
    TrapMethod trap = TrapMethod::Twinning;
    CollectMethod collect = CollectMethod::Diffing;

    /** Paper-style name: EC-ci, EC-time, EC-diff, LRC-ci, LRC-time,
     *  LRC-diff. */
    std::string name() const;

    /** fatal()s on the excluded ci+diff combination. */
    void validate() const;

    /** Parse a paper-style name; fatal() on unknown names. */
    static RuntimeConfig parse(const std::string &name);

    /** The six legal combinations, in Table 4/5 order. */
    static const std::vector<RuntimeConfig> &all();

    bool operator==(const RuntimeConfig &other) const = default;
};

/**
 * Parameters of a simulated cluster. Every field except runtime and
 * cost is one row of the knob table in config.cc: record key,
 * environment variable, default, allowed range and a one-line doc.
 * The -1 (0, empty) initializers mark rows Cluster resolves from the
 * environment or a derived default, once, through resolved().
 */
struct ClusterConfig
{
    int nprocs = 8;

    /**
     * Application threads per node (SMP nodes). Every node runs this
     * many SPMD worker threads sharing the node's memory, protocol
     * state and network endpoint; worker w = node * T + threadId
     * partitions the applications. With T == 1 the runtime is
     * observationally identical to the historical one-thread-per-node
     * system (the per-thread clock aliases the node clock and no
     * intra-node queueing ever happens).
     */
    int threadsPerNode = 0;

    RuntimeConfig runtime;
    std::size_t arenaBytes = 16u << 20;
    std::size_t pageSize = 4096;
    CostModel cost;

    /** Retired modeled stop-and-wait loss: only 0 is accepted. */
    std::uint64_t lossEveryNth = 0;

    /**
     * Use the hierarchical (page-level + word-level) dirty bit scheme
     * for LRC-ci (Section 4.1). Disabling it scans the whole shared
     * region at every write collection — the ablation the paper argues
     * against.
     */
    bool hierarchicalDirty = true;

    /**
     * Twin small EC objects eagerly at write-lock acquire (the paper's
     * improvement over the Midway VM implementation, Sections 4.2 and
     * 9). Disabling it models the older scheme's cost: one protection
     * fault per small-object write acquire before the twin is made.
     */
    bool ecEagerSmallTwin = true;

    // --- Fast-path memory pipeline (ablatable against the seed paths).

    /** Retired: only true is accepted. The scan kernel is process-wide
     *  (bestScanKernel). */
    bool wideDiffScan = true;

    /** Retired gap-coalesced diffs: only 0 is accepted. */
    std::uint32_t diffGapWords = 0;

    /**
     * Cross-page piggybacking on homeless LRC misses. Every miss
     * sends one batched request per responder (diffs at one app
     * thread per node: the page's undominated pending writers;
     * otherwise all of them);
     * with this on, the batch also carries every other invalid page
     * those responders cover. Off, the batch holds only the missed
     * page — one round trip per (page, responder), at 12 extra wire
     * bytes per round trip (the batch's page count and page id).
     */
    bool batchDiffFetch = true;

    /**
     * Recycle wire payload and twin buffers through the process-wide
     * BufferPool instead of allocating a fresh vector per message.
     */
    bool pooledBuffers = true;

    /**
     * Piggyback write notices (interval records) on LRC fetch replies
     * (diff, timestamp and home-page), TreadMarks-style: a requester
     * advertises its interval-log coverage and the responder appends
     * the records it lacks, so the data a miss brings back cannot be
     * followed by an immediate re-invalidation of the same page for
     * an interval the reply already contained. For the timestamping
     * implementations this also lifts the requester-vector cap on
     * transmitted runs (the piggybacked records supply the ordering
     * knowledge the cap protected). Counted by noticesPiggybacked /
     * reinvalidationsAvoided.
     */
    bool piggybackWriteNotices = true;

    /**
     * Garbage-collect interval records and stored diffs at barriers
     * once the interval log holds at least gcIntervalThreshold
     * records: every node validates its invalid pages before arriving,
     * the manager computes the minimum arrival vector, and departures
     * instruct all nodes to discard records/diffs below it. Keeps
     * long-running LRC executions' memory bounded (TreadMarks-style).
     */
    bool gcAtBarriers = true;
    std::uint32_t gcIntervalThreshold = 256;

    /** Retired arena-pressure GC trigger: only false and 2048 are
     *  accepted. */
    bool adaptiveGcThreshold = false;
    std::uint32_t gcPressurePages = 2048;

    /**
     * Home-based LRC (HLRC-style): every page has a home node
     * (round-robin, migratable) that absorbs diffs eagerly at interval
     * close, so an access miss is exactly one request/reply pair
     * against the home and no diffs are ever stored — the barrier-time
     * diff GC handshake becomes a no-op. Takes effect for LRC with
     * diff collection (LRC-diff); the timestamping implementations
     * remain homeless.
     */
    bool homeBasedLrc = false;

    /**
     * Remote accesses (diff flushes + page fetches) by a single node
     * to a page homed elsewhere before the home migrates to that node.
     * 0 disables migration.
     */
    std::uint32_t homeMigrateThreshold = 64;

    /**
     * Epoch window (in accesses to one homed page) of the migration
     * counters: every homeDecayWindow accesses the per-node counts are
     * halved, so migration reacts to the recent access mix instead of
     * firing on stale history accumulated long ago. 0 restores the
     * legacy undecayed counter.
     */
    std::uint32_t homeDecayWindow = 1024;

    // --- Sharing-policy layer: adaptive policies for migratory
    // sharing (locks and task queues — the pattern on which the
    // paper's EC and LRC results diverge most). Environment variables
    // let whole ctest/bench legs flip a policy without recompiling,
    // while tests that pin a value stay pinned.

    /**
     * Bounded local-priority lock hand-off (SMP nodes): after at most
     * this many consecutive local grants of one lock (hand-offs to
     * parked siblings and fast-path reacquires alike), a pending
     * remote requester is served before the next local taker.
     * Preserves the zero-message short-circuit for bursts of sibling
     * contention while capping how long a queued remote request can
     * starve (EC's task-queue app degrades unboundedly under pure
     * local-first hand-off at threadsPerNode > 1). 0 = unbounded (the
     * pure local-first policy). Counted by remoteHandoffsForced /
     * maxLocalHandoffRun.
     */
    int lockLocalHandoffBound = -1;

    /**
     * Migrate-to-last-writer home policy: a homed page whose flushes
     * keep switching writers (a migratory object — task queue slots,
     * lock-protected counters) follows the writer chain instead of
     * waiting for one node to dominate the access counts. Classified
     * by writer switches within the homeDecayWindow epoch (see
     * homeWriterSwitchThreshold). Counted by lastWriterMigrations.
     */
    int homeMigrateLastWriter = -1;

    /**
     * Writer switches of one homed page within the decay window that
     * classify it as migratory under the last-writer policy (a switch
     * is a flush — or a local interval close at the home — by a
     * different writer than the previous one).
     */
    std::uint32_t homeWriterSwitchThreshold = 3;

    /**
     * Adaptive fallback for home ping-pong: once a page has migrated
     * this many times (its migration epoch), further migrations are
     * suppressed and the page stays pinned at its current home — the
     * lever that turns pathological follow-the-writer ping-pong into
     * a stable, reproducible static-home pattern. 0 = no cap; the
     * default is 8 under the last-writer policy (a migratory page
     * settles after a bounded chase). Counted by
     * homeMigrationsSuppressed.
     */
    int homePingPongLimit = -1;

    /** Retired optimistic lock-free home reads: only 0 and 3 are
     *  accepted. Every home-mode miss reads its page through the
     *  locked HomePageRequest path. */
    int optimisticHomeReads = 0;
    int optReadMaxRetries = 3;

    /**
     * Defer HomeDiffFlush sends and merge the payloads per home: a
     * releaser that closes several intervals between remote
     * communication points (lock grants, barrier arrivals, its own
     * home fetches) sends one flush message per home carrying every
     * pending interval's diffs instead of one message per close — the
     * home's word-sum guard already tolerates any arrival order, and
     * requests for not-yet-flushed intervals park at the home exactly
     * as they do for in-flight ones. Off = eager per-close flushes,
     * the legacy protocol. Counted by homeFlushesDeferred.
     */
    int homeFlushDefer = -1;

    // --- Latency-path layer: adaptive blocking dequeue.

    /** Retired reply-bypass-off switch: only 1 is accepted. */
    int replyBypass = 1;

    /**
     * Adaptive blocking dequeue: app-level receive polls (the QS
     * task-queue scan) park on the endpoint's activity futex word
     * with an adaptive spin threshold instead of spinning through
     * chargeWork backoff, and the service thread's ring pop uses a
     * dynamically sized spin budget (halve on park, grow on hot pop)
     * instead of the binary parked/hot budget. Counted by idlePolls /
     * idleParks.
     */
    int blockingDequeue = -1;

    /** Retired send-side coalescing: only 0 is accepted. Home traffic
     *  is batched by the protocol instead (DESIGN.md §10). */
    int coalesceSends = 0;

    /**
     * Per-lock adaptive fairness bound: instead of the static
     * lockLocalHandoffBound k, each lock's local-hand-off bound grows
     * (x2, capped) while local runs complete with no remote waiter
     * queued and shrinks (/2, floored at 1) every time the bound
     * forces a remote grant — EC's task queue settles near k=16 while
     * LRC's prefers k=4, so one static k always sacrifices one of
     * them. Takes effect only when a base bound is armed (the static
     * k seeds the initial per-lock bound). Counted by
     * fairnessBoundGrows / fairnessBoundShrinks.
     */
    int lockFairnessAdaptive = 0;

    // --- Crash tolerance: fault injection + coordinated
    // checkpointing. The CI fault legs and the nightly chaos workflow
    // arm them per process through the environment. With nothing
    // armed the fault layer is never constructed and the hot paths
    // are bit-identical to a build without it (zero-cost abstraction,
    // asserted by the CI micro_net comparison).

    /** Seed of the deterministic fault injector (message-drop
     *  decisions). */
    long long faultSeed = -1;

    /**
     * Fraction in [0, 1) of *droppable* messages (direct
     * request/reply RPCs — never chain-routed lock or home traffic,
     * never Shutdown) the injector discards before they reach the
     * destination inbox. Enables the Endpoint deadline +
     * bounded-retransmit machinery.
     */
    double faultMsgDrop = -1.0;

    /**
     * Node to chaos-kill at a barrier: the victim's protocol state is
     * wiped and restored from its latest checkpoint, and its parked
     * inbox traffic replays forward. Unset or outside the cluster =
     * no kill.
     */
    int faultKillNode = -1;

    /** Barrier-arrival count (per node, 1-based) at which the kill
     *  fires; 2 by default, 0 when no kill is armed. */
    int faultKillEpoch = -1;

    /**
     * Take a coordinated checkpoint every N barrier cuts (1 = every
     * barrier, 0 = never). Unset = 1 when checkpointing is otherwise
     * engaged (a kill or outage is armed, or ckptDir is set), else 0.
     */
    int checkpointEvery = -1;

    /**
     * Directory for tier-1 file-backed snapshots (one blob per node
     * per cut + a manifest recording the cut's vector-time frontier).
     * Empty = in-memory tier 0 only.
     */
    std::string ckptDir;

    /**
     * Silent-peer outage injection: at this node's checkpoint cut the
     * injector silences it (100% drop of its droppable traffic, both
     * directions, overriding the retransmit attempt immunity — a
     * total outage, unlike the probabilistic faultMsgDrop) for
     * faultOutageMs of wall-clock, then the node is wiped, restored
     * from its latest checkpoint and unsilenced. Survivors detect the
     * outage via the failure detector and degrade (typed
     * PeerUnavailable retries) instead of hanging. Unset or outside
     * the cluster = no outage.
     */
    int faultOutageNode = -1;

    /** Barrier-arrival count (per node, 1-based) at which the outage
     *  fires; 2 by default, 0 when no outage is armed. */
    int faultOutageEpoch = -1;

    /** Outage duration in wall-clock milliseconds; must comfortably
     *  exceed the detector deadline so survivors genuinely observe
     *  the peer down. */
    int faultOutageMs = -1;

    /**
     * Failure-detector liveness deadline in milliseconds: a peer not
     * heard from (message arrival or in-process heartbeat) within the
     * deadline is declared down. 0 disarms the detector; the default
     * is 50 when an outage is armed, else 0.
     */
    int fdDeadlineMs = -1;

    /** Endpoint retransmit schedule in microseconds: first deadline
     *  and exponential-backoff cap. */
    long long faultRtoFirstUs = 2000;
    long long faultRtoCapUs = 500000;

    /**
     * Incremental delta checkpoints: between full anchor cuts, a
     * node's snapshot is diffed (SIMD changed-run scan) against the
     * previous cut's image and only the changed runs are stored
     * (checkpointDeltaBytes), with periodic anchors bounding chain
     * length. Restore materializes anchor + deltas and is
     * bit-identical to restoring a full cut. Off = every cut full.
     */
    int ckptDelta = 0;

    /** Anchor cadence for delta chains: every N-th checkpoint of a
     *  node is a full cut (N = 1 degenerates to all-full). */
    int ckptAnchorEvery = 8;

    // --- Transport tier (DESIGN.md §9).

    /**
     * Which interconnect carries the cluster's messages:
     *  - "ring"   — tier 0, all nodes are threads of this process
     *               sharing in-memory MPSC rings (the historical
     *               substrate, and the default; every feature works
     *               here);
     *  - "socket" — tier 1, Cluster::run forks one process per node
     *               and messages cross Unix-domain sockets as
     *               length-prefixed frames;
     *  - "tcp"    — tier 1 over loopback TCP (ports rendezvous
     *               through the socket directory).
     * In-process-only features (coordinated checkpointing, chaos
     * kill, silent-peer outages, the failure detector) force a
     * documented fallback to "ring" — they reach across node state in
     * ways only one address space allows.
     */
    std::string transport;

    /**
     * Rendezvous directory for the socket tiers (listeners, port
     * files, result dumps). Empty = a fresh mkdtemp directory per
     * run, removed afterwards.
     */
    std::string socketDir;

    /**
     * This configuration with the knob table applied: no unset rows,
     * every value checked (a fatal() names the row and the variable).
     * When a requested socket tier falls back to the ring, @p fallback
     * (if non-null) receives a message naming the tier and the
     * in-process-only feature that forced the move.
     */
    ClusterConfig resolved(std::string *fallback = nullptr) const;

    /** One JSON object: runtime, cost_model and every row of the knob
     *  table under its record key, in table order. */
    std::string toJson() const;
};

} // namespace dsm

#endif // DSM_CORE_CONFIG_HH
