#include "ledger.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSched: return "sim.scheduler";
    case Layer::kReplica: return "replica.on_message";
    case Layer::kCoord: return "txn.coord.on_message";
    case Layer::kRun: return "txn.coord.run";
    case Layer::kQuorumRead: return "quorum.read";
    case Layer::kQuorumWrite: return "quorum.write";
    case Layer::kReconfig: return "reconfig";
    case Layer::kClient: return "bench.client";
    case Layer::kKeyspace: return "keyspace.run";
    case Layer::kCpath: return "obs.critical_path";
    case Layer::kCheckMerge: return "check.merge";
    case Layer::kCheckSerial: return "check.serial";
    case Layer::kCheckLin: return "check.lin";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint64_t Ledger::total_self_ns() const {
  std::uint64_t total = 0;
  for (const std::uint64_t ns : self_ns_) total += ns;
  return total;
}

void Ledger::reset() {
  self_ns_.fill(0);
  calls_.fill(0);
  quorum.fill(QuorumTally{});
}

}  // namespace perfbench
