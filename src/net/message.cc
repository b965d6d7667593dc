#include "net/message.hh"

namespace dsm {

const char *
toString(MsgType type)
{
    switch (type) {
      case MsgType::Invalid: return "Invalid";
      case MsgType::LockRequest: return "LockRequest";
      case MsgType::LockForward: return "LockForward";
      case MsgType::LockGrant: return "LockGrant";
      case MsgType::BarrierArrive: return "BarrierArrive";
      case MsgType::BarrierDepart: return "BarrierDepart";
      case MsgType::DiffBatchRequest: return "DiffBatchRequest";
      case MsgType::DiffBatchReply: return "DiffBatchReply";
      case MsgType::PageTsBatchRequest: return "PageTsBatchRequest";
      case MsgType::PageTsBatchReply: return "PageTsBatchReply";
      case MsgType::HomeDiffFlush: return "HomeDiffFlush";
      case MsgType::HomePageRequest: return "HomePageRequest";
      case MsgType::HomePageReply: return "HomePageReply";
      case MsgType::HomePageSnapshotReply:
        return "HomePageSnapshotReply";
      case MsgType::HomeMigrate: return "HomeMigrate";
      case MsgType::Shutdown: return "Shutdown";
      default: return "Unknown";
    }
}

} // namespace dsm
