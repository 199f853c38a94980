// Host-time ledger for the traced benchmark run.
//
// Every timed call into a layer opens a span on a small stack; closing it
// charges the span's SELF time (its duration minus the spans nested in it)
// to the span's layer. Self times partition the timed wall time, so the
// layers of one run add up to the time spent inside top-level spans, and
// whatever the traced phase spent outside every span is the ledger's
// "other" line. All timing sits in the benchmark's own files, around calls
// into the library's public entry points: timing proxies registered with
// Network::add_site in place of the real handlers, and a forwarding
// ReplicaControlProtocol that times quorum assembly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "protocols/protocol.hpp"
#include "sim/network.hpp"
#include "util/check.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSched,         ///< Scheduler::run self time (delivery + timer closures)
  kReplica,       ///< ReplicaServer::on_message
  kCoord,         ///< Coordinator::on_message
  kRun,           ///< Coordinator::run
  kQuorumRead,    ///< assemble_read_quorum
  kQuorumWrite,   ///< assemble_write_quorum
  kReconfig,      ///< ReconfigManager::on_message and start
  kClient,        ///< the benchmark's closed-loop client code
  kKeyspace,      ///< run_keyspace_workload (clusters inclusive)
  kCpath,         ///< analyze_critical_paths
  kCheckMerge,    ///< merge_keyspace_histories
  kCheckSerial,   ///< SerializabilityChecker::check on the merged history
  kCheckLin,      ///< per-(shard, key) linearizability
  kCount,
};

const char* layer_name(Layer layer);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Ledger {
 public:
  void enter(Layer layer) {
    ATRCP_CHECK(depth_ < stack_.size());
    Frame& f = stack_[depth_++];
    f.layer = layer;
    f.child_ns = 0;
    f.start = now_ns();
  }

  void exit() {
    const std::uint64_t end = now_ns();
    const Frame& f = stack_[--depth_];
    const std::uint64_t total = end - f.start;
    const auto i = static_cast<std::size_t>(f.layer);
    self_ns_[i] += total - f.child_ns;
    calls_[i] += 1;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += total;
  }

  std::uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t total_self_ns() const;

  /// Quorum assemblies seen by TimedProtocol, by kind: 0 = read, 1 = write.
  /// Like the library's quorum.* counters, this includes the assemblies
  /// the reconfiguration manager runs to test ack coverage.
  struct QuorumTally {
    std::uint64_t attempts = 0;
    std::uint64_t failures = 0;
    std::uint64_t members = 0;
  };
  std::array<QuorumTally, 2> quorum{};

  /// Forgets all charged time; only valid with no span open.
  void reset();

 private:
  struct Frame {
    Layer layer = Layer::kSched;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
  };
  static constexpr std::size_t kCount = static_cast<std::size_t>(Layer::kCount);

  std::array<Frame, 32> stack_{};
  std::size_t depth_ = 0;
  std::array<std::uint64_t, kCount> self_ns_{};
  std::array<std::uint64_t, kCount> calls_{};
};

/// RAII span; a null ledger (the untraced run) makes it a no-op.
class Span {
 public:
  Span(Ledger* ledger, Layer layer) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->enter(layer);
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

/// Registered with Network::add_site in place of `inner`, so every delivery
/// to the site is timed as `layer`.
class TimedSite final : public atrcp::SiteHandler {
 public:
  TimedSite(atrcp::SiteHandler& inner, Ledger& ledger, Layer layer)
      : inner_(inner), ledger_(ledger), layer_(layer) {}

  void on_message(const atrcp::Message& message) override {
    Span span(&ledger_, layer_);
    inner_.on_message(message);
  }

 private:
  atrcp::SiteHandler& inner_;
  Ledger& ledger_;
  Layer layer_;
};

/// Forwards every call to `inner` and times quorum assembly. name() is the
/// inner protocol's, so the quorum.<name>.* counters the cluster attaches
/// to this object carry the same names as in an untraced run. It also
/// tallies quorum sizes into the ledger, which covers the protocols an
/// online reconfiguration installs (those never get registry counters).
class TimedProtocol final : public atrcp::ReplicaControlProtocol {
 public:
  TimedProtocol(std::unique_ptr<atrcp::ReplicaControlProtocol> inner,
                Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  std::string name() const override { return inner_->name(); }
  std::size_t universe_size() const override { return inner_->universe_size(); }
  double read_cost() const override { return inner_->read_cost(); }
  double write_cost() const override { return inner_->write_cost(); }
  double read_availability(double p) const override {
    return inner_->read_availability(p);
  }
  double write_availability(double p) const override {
    return inner_->write_availability(p);
  }
  double read_load() const override { return inner_->read_load(); }
  double write_load() const override { return inner_->write_load(); }

 protected:
  std::optional<atrcp::Quorum> do_assemble_read_quorum(
      const atrcp::FailureSet& failures, atrcp::Rng& rng) const override {
    Span span(&ledger_, Layer::kQuorumRead);
    return tally(0, inner_->assemble_read_quorum(failures, rng));
  }
  std::optional<atrcp::Quorum> do_assemble_write_quorum(
      const atrcp::FailureSet& failures, atrcp::Rng& rng) const override {
    Span span(&ledger_, Layer::kQuorumWrite);
    return tally(1, inner_->assemble_write_quorum(failures, rng));
  }

 private:
  std::optional<atrcp::Quorum> tally(
      std::size_t kind, std::optional<atrcp::Quorum> quorum) const {
    Ledger::QuorumTally& t = ledger_.quorum[kind];
    ++t.attempts;
    if (quorum) {
      t.members += quorum->size();
    } else {
      ++t.failures;
    }
    return quorum;
  }

  std::unique_ptr<atrcp::ReplicaControlProtocol> inner_;
  Ledger& ledger_;
};

}  // namespace perfbench
