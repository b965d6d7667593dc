#include "util/stats.hh"

#include <sstream>

namespace dsm {

namespace {

/** Apply @p fn(name, field-reference) to every counter of @p s. */
template <typename Stats, typename Fn>
void
forEachField(Stats &s, Fn fn)
{
    fn("messagesSent", s.messagesSent);
    fn("messagesReceived", s.messagesReceived);
    fn("bytesSent", s.bytesSent);
    fn("bytesReceived", s.bytesReceived);
    fn("retransmissions", s.retransmissions);
    fn("repliesBypassed", s.repliesBypassed);
    fn("replyBypassRefusals", s.replyBypassRefusals);
    fn("idlePolls", s.idlePolls);
    fn("idleParks", s.idleParks);
    fn("locksAcquired", s.locksAcquired);
    fn("roLocksAcquired", s.roLocksAcquired);
    fn("localLockHits", s.localLockHits);
    fn("lockForwards", s.lockForwards);
    fn("barriersEntered", s.barriersEntered);
    fn("intraNodeLockHandoffs", s.intraNodeLockHandoffs);
    fn("remoteHandoffsForced", s.remoteHandoffsForced);
    fn("maxLocalHandoffRun", s.maxLocalHandoffRun);
    fn("fairnessBoundGrows", s.fairnessBoundGrows);
    fn("fairnessBoundShrinks", s.fairnessBoundShrinks);
    fn("pageFaults", s.pageFaults);
    fn("twinsCreated", s.twinsCreated);
    fn("twinWordsCopied", s.twinWordsCopied);
    fn("dirtyStores", s.dirtyStores);
    fn("diffsCreated", s.diffsCreated);
    fn("diffsApplied", s.diffsApplied);
    fn("diffWordsCompared", s.diffWordsCompared);
    fn("diffBytesSent", s.diffBytesSent);
    fn("tsWordsScanned", s.tsWordsScanned);
    fn("tsRunsSent", s.tsRunsSent);
    fn("tsBytesSent", s.tsBytesSent);
    fn("intervalsCreated", s.intervalsCreated);
    fn("writeNoticesSent", s.writeNoticesSent);
    fn("writeNoticesReceived", s.writeNoticesReceived);
    fn("pagesInvalidated", s.pagesInvalidated);
    fn("accessMisses", s.accessMisses);
    fn("diffRequestsSent", s.diffRequestsSent);
    fn("diffPagesPiggybacked", s.diffPagesPiggybacked);
    fn("diffsDiscarded", s.diffsDiscarded);
    fn("tsRequestsSent", s.tsRequestsSent);
    fn("tsPagesPiggybacked", s.tsPagesPiggybacked);
    fn("noticesPiggybacked", s.noticesPiggybacked);
    fn("reinvalidationsAvoided", s.reinvalidationsAvoided);
    fn("homeFlushesSent", s.homeFlushesSent);
    fn("pageFetchRoundTrips", s.pageFetchRoundTrips);
    fn("homeMigrations", s.homeMigrations);
    fn("lastWriterMigrations", s.lastWriterMigrations);
    fn("homeMigrationsSuppressed", s.homeMigrationsSuppressed);
    fn("homeFlushesDeferred", s.homeFlushesDeferred);
    fn("gcRounds", s.gcRounds);
    fn("gcRecordsReclaimed", s.gcRecordsReclaimed);
    fn("gcDiffsReclaimed", s.gcDiffsReclaimed);
    fn("updatesSent", s.updatesSent);
    fn("updateBytesSent", s.updateBytesSent);
    fn("rebinds", s.rebinds);
    fn("checkpointsTaken", s.checkpointsTaken);
    fn("recoveryReplays", s.recoveryReplays);
    fn("peerDownDetections", s.peerDownDetections);
    fn("peerDownRecoveries", s.peerDownRecoveries);
    fn("peerUnavailableRetries", s.peerUnavailableRetries);
    fn("orphanForwardsReplayed", s.orphanForwardsReplayed);
    fn("rehostedFetches", s.rehostedFetches);
    fn("checkpointDeltaBytes", s.checkpointDeltaBytes);
    fn("workUnits", s.workUnits);
}

} // namespace

NodeStats &
NodeStats::operator+=(const NodeStats &other)
{
    // maxLocalHandoffRun is a high-water mark, not a volume: merging
    // thread deltas (or nodes into a cluster total) takes the max.
    const std::uint64_t max_run =
        std::max(maxLocalHandoffRun, other.maxLocalHandoffRun);
    std::vector<std::uint64_t> vals;
    forEachField(other, [&](const char *, const std::uint64_t &v) {
        vals.push_back(v);
    });
    std::size_t i = 0;
    forEachField(*this, [&](const char *, std::uint64_t &v) {
        v += vals[i++];
    });
    maxLocalHandoffRun = max_run;
    return *this;
}

std::vector<std::pair<std::string, std::uint64_t>>
NodeStats::items() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    forEachField(*this, [&](const char *name, const std::uint64_t &v) {
        out.emplace_back(name, v);
    });
    return out;
}

std::string
NodeStats::toString() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[name, value] : items()) {
        if (value == 0)
            continue;
        if (!first)
            os << " ";
        os << name << "=" << value;
        first = false;
    }
    return os.str();
}

} // namespace dsm
