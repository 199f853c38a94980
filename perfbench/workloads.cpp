#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "check/serializability.hpp"
#include "core/config.hpp"
#include "core/quorums.hpp"
#include "keyspace/keyspace.hpp"
#include "keyspace/multi_history.hpp"
#include "obs/critical_path.hpp"
#include "txn/cluster.hpp"

namespace perfbench {

using atrcp::ArbitraryProtocol;
using atrcp::Cluster;
using atrcp::ClusterOptions;
using atrcp::Coordinator;
using atrcp::FailureInjector;
using atrcp::Key;
using atrcp::LinkParams;
using atrcp::LockManager;
using atrcp::MetricsRegistry;
using atrcp::Network;
using atrcp::ReconfigManager;
using atrcp::ReplicaControlProtocol;
using atrcp::ReplicaServer;
using atrcp::Rng;
using atrcp::Scheduler;
using atrcp::SimTime;
using atrcp::SiteId;
using atrcp::TxnOp;
using atrcp::TxnOutcome;
using atrcp::TxnResult;

namespace {

using ProtocolPtr = std::unique_ptr<ReplicaControlProtocol>;

constexpr std::size_t kClients = 4;
/// hot64 and churn1024 draw keys uniformly from [0, kKeys).
constexpr std::uint64_t kKeys = 64;
/// 50 ± 10 µs links: base 40 µs plus uniform jitter in [0, 20].
constexpr LinkParams kLink{.base_latency = 40, .jitter = 20};
/// Events per Scheduler::run call. Far below kDefaultEventCap, so no single
/// call can trip the livelock guard however long the run.
constexpr std::size_t kPumpChunk = 512;
/// An aborted operation is retried as a new transaction after a backoff;
/// after this many attempts it counts as failed.
constexpr int kMaxAttempts = 100;
constexpr SimTime kRetryBackoff = 1'000;

// churn1024: memoryless replica crash/recover process plus an online
// reconfiguration every kReconfigEvery of simulated time.
constexpr std::size_t kChurnSites = 1024;
constexpr SimTime kMeanUp = 400'000;
constexpr SimTime kMeanDown = 20'000;
constexpr SimTime kReconfigEvery = 100'000;

// ycsb_audit.
constexpr std::size_t kShards = 4;
constexpr std::uint64_t kRecords = 1ull << 20;
constexpr std::size_t kBatchOps = 256;
constexpr std::size_t kBusCapacity = 1 << 16;
constexpr std::size_t kMaxLinOps = 48;  ///< check_keyspace_histories' default

constexpr std::uint64_t kLoopSalt = 0x6C6F6F70;
constexpr std::uint64_t kWarmSalt = 0x7761726D;
constexpr std::uint64_t kMeasureSalt = 0x6D656173;

double seconds(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

ProtocolPtr wrap(ProtocolPtr protocol, Ledger* ledger) {
  if (ledger == nullptr) return protocol;
  return std::make_unique<TimedProtocol>(std::move(protocol), *ledger);
}

/// What the closed loop and the counters need from a cluster, whichever way it
/// was wired.
struct SimView {
  Scheduler* scheduler = nullptr;
  Network* network = nullptr;
  MetricsRegistry* metrics = nullptr;
  FailureInjector* injector = nullptr;
  ReconfigManager* reconfig = nullptr;  ///< null unless reconfig is on
  const ReplicaControlProtocol* protocol = nullptr;  ///< the initial one
  std::string quorum_prefix;            ///< "quorum.<initial name>."
  std::vector<Coordinator*> clients;
  std::vector<ReplicaServer*> servers;
};

SimView view_of(Cluster& cluster) {
  SimView view;
  view.scheduler = &cluster.scheduler();
  view.network = &cluster.network();
  view.metrics = &cluster.metrics();
  view.injector = &cluster.injector();
  view.reconfig = cluster.reconfig();
  view.protocol = &cluster.protocol();
  view.quorum_prefix = "quorum." + cluster.protocol().name() + ".";
  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    view.clients.push_back(&cluster.client(c));
  }
  for (std::size_t r = 0; r < cluster.replica_count(); ++r) {
    view.servers.push_back(&cluster.server(static_cast<atrcp::ReplicaId>(r)));
  }
  return view;
}

/// Cluster's constructor, re-wired with a timing proxy in front of every
/// site: same component order, same site ids, same Rng(seed) and
/// seed ^ 0x5DEECE66D fork order, so a seeded run is event-for-event the
/// run an untraced Cluster makes.
class TracedCluster {
 public:
  TracedCluster(ProtocolPtr protocol, const ClusterOptions& options,
                Ledger& ledger)
      : protocol_(std::move(protocol)),
        network_(scheduler_, Rng(options.seed), options.link) {
    protocol_->attach_metrics(metrics_);
    network_.set_metrics(&metrics_);
    Rng seeder(options.seed ^ 0x5DEECE66DULL);

    const std::size_t n =
        std::max(options.site_pool, protocol_->universe_size());
    std::vector<SiteId> replica_sites;
    for (std::size_t r = 0; r < n; ++r) {
      auto server = std::make_unique<ReplicaServer>(network_);
      const SiteId site = add_site(*server, ledger, Layer::kReplica);
      server->set_site(site);
      server->set_metrics(&metrics_);
      replica_sites.push_back(site);
      servers_.push_back(std::move(server));
    }
    injector_ = std::make_unique<FailureInjector>(network_, scheduler_, n,
                                                  seeder.fork());
    for (std::size_t c = 0; c < options.clients; ++c) {
      auto coordinator = std::make_unique<Coordinator>(
          network_, scheduler_, *protocol_, replica_sites, locks_,
          seeder.fork(), options.coordinator, &injector_->failures());
      coordinator->set_site(add_site(*coordinator, ledger, Layer::kCoord));
      coordinator->set_metrics(&metrics_, &spans_);
      coordinators_.push_back(std::move(coordinator));
    }
    if (options.enable_reconfig) {
      reconfig_ = std::make_unique<ReconfigManager>(
          network_, scheduler_, *protocol_, replica_sites, seeder.fork(),
          options.reconfig);
      reconfig_->set_site(add_site(*reconfig_, ledger, Layer::kReconfig));
      reconfig_->set_metrics(&metrics_);
      for (const auto& coordinator : coordinators_) {
        coordinator->set_epoch_source(reconfig_.get());
      }
    }
  }

  SimView view() {
    SimView view;
    view.scheduler = &scheduler_;
    view.network = &network_;
    view.metrics = &metrics_;
    view.injector = injector_.get();
    view.reconfig = reconfig_.get();
    view.protocol = protocol_.get();
    view.quorum_prefix = "quorum." + protocol_->name() + ".";
    for (const auto& c : coordinators_) view.clients.push_back(c.get());
    for (const auto& s : servers_) view.servers.push_back(s.get());
    return view;
  }

 private:
  SiteId add_site(atrcp::SiteHandler& handler, Ledger& ledger, Layer layer) {
    proxies_.push_back(std::make_unique<TimedSite>(handler, ledger, layer));
    return network_.add_site(*proxies_.back());
  }

  // Declaration order follows Cluster's: instruments first, manager last.
  MetricsRegistry metrics_;
  atrcp::TxnSpanLog spans_;
  ProtocolPtr protocol_;
  Scheduler scheduler_;
  Network network_;
  std::vector<std::unique_ptr<ReplicaServer>> servers_;
  std::vector<std::unique_ptr<TimedSite>> proxies_;
  std::unique_ptr<FailureInjector> injector_;
  LockManager locks_;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
  std::unique_ptr<ReconfigManager> reconfig_;
};

/// Counter readings at a phase boundary, summed over one or more clusters.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes = 0;
  std::uint64_t replica_msgs = 0;
  std::uint64_t crashes = 0;
  std::uint64_t transitions = 0;
  std::uint64_t lock_timeouts = 0;
  std::uint64_t reassemblies = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t retransmits = 0;
  /// quorum.<name>.{read,write}.{attempts,failures,members}
  std::array<std::uint64_t, 2> q_attempts{};
  std::array<std::uint64_t, 2> q_failures{};
  std::array<std::uint64_t, 2> q_members{};
  std::vector<std::uint64_t> lock_wait;  ///< histogram buckets + overflow
};

std::uint64_t counter(const MetricsRegistry& metrics, const std::string& name) {
  const atrcp::Counter* c = metrics.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

Snapshot take(const std::vector<SimView>& views) {
  Snapshot s;
  s.lock_wait.assign(MetricsRegistry::latency_bounds_us().size() + 1, 0);
  for (const SimView& v : views) {
    const MetricsRegistry& m = *v.metrics;
    s.events += v.scheduler->executed();
    s.sent += v.network->messages_sent();
    s.dropped += v.network->messages_dropped();
    s.bytes += counter(m, "net.bytes_sent");
    for (const ReplicaServer* server : v.servers) {
      s.replica_msgs += server->messages_received();
    }
    s.crashes += v.injector->crash_count();
    if (v.reconfig != nullptr) {
      s.transitions += v.reconfig->transitions_completed();
    }
    s.lock_timeouts += counter(m, "txn.lock_timeouts");
    s.reassemblies += counter(m, "txn.quorum_reassemblies");
    s.unavailable += counter(m, "txn.quorum_unavailable");
    s.retransmits += counter(m, "txn.commit_retransmits");
    const char* kinds[2] = {"read.", "write."};
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string p = v.quorum_prefix + kinds[k];
      s.q_attempts[k] += counter(m, p + "attempts");
      s.q_failures[k] += counter(m, p + "failures");
      s.q_members[k] += counter(m, p + "members");
    }
    if (const atrcp::Histogram* h =
            m.find_histogram("txn.latency.lock_wait_us")) {
      for (std::size_t b = 0; b < h->bucket_counts().size(); ++b) {
        s.lock_wait[b] += h->bucket_counts()[b];
      }
      s.lock_wait.back() += h->overflow();
    }
  }
  return s;
}

/// p99 of the lock-wait histogram population added between two snapshots:
/// the upper bound of the bucket holding the nearest-rank sample (the last
/// finite bound when it falls in the overflow bucket).
double lock_wait_p99(const Snapshot& before, const Snapshot& after) {
  const auto& bounds = MetricsRegistry::latency_bounds_us();
  std::vector<std::uint64_t> delta(after.lock_wait.size());
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < delta.size(); ++b) {
    delta[b] = after.lock_wait[b] - before.lock_wait[b];
    total += delta[b];
  }
  if (total == 0) return 0;
  const std::uint64_t rank = (total * 99 + 99) / 100;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    seen += delta[b];
    if (seen >= rank) return static_cast<double>(bounds[b]);
  }
  return static_cast<double>(bounds.back());
}

// -- the closed loop ----------------------------------------------------------

/// kClients closed-loop clients, one single-op transaction in flight each,
/// over kKeys uniformly drawn keys.
/// An aborted operation is retried (as a fresh transaction) after
/// kRetryBackoff, up to kMaxAttempts. Accounting counts only completions
/// that happen while `measuring` is set.
class ClosedLoop {
 public:
  ClosedLoop(const SimView& sim, double read_fraction, std::uint64_t seed,
             std::uint64_t total_ops, Ledger* ledger)
      : sim_(sim),
        read_fraction_(read_fraction),
        total_ops_(total_ops),
        ledger_(ledger) {
    Rng root(seed);
    for (std::size_t c = 0; c < sim.clients.size(); ++c) {
      Client client;
      client.rng = root.fork();
      clients_.push_back(std::move(client));
    }
  }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void start() {
    Span span(ledger_, Layer::kClient);
    for (std::size_t c = 0; c < clients_.size(); ++c) next_op(c);
  }

  std::uint64_t ops_done() const noexcept { return ops_done_; }
  bool finished() const noexcept { return ops_done_ == total_ops_; }

  bool measuring = false;
  Counts counts;
  std::vector<std::uint32_t> read_latency_us;
  std::vector<std::uint32_t> write_latency_us;

 private:
  struct Client {
    Rng rng;
    std::uint64_t seq = 0;
    TxnOp op;
    int attempts = 0;
    SimTime started = 0;
  };

  void next_op(std::size_t c) {
    if (ops_issued_ == total_ops_) return;
    ++ops_issued_;
    Client& client = clients_[c];
    const Key key = static_cast<Key>(client.rng.below(kKeys));
    if (client.rng.chance(read_fraction_)) {
      client.op = TxnOp::read(key);
    } else {
      client.op = TxnOp::write(key, "c" + std::to_string(c) + "." +
                                        std::to_string(client.seq));
    }
    ++client.seq;
    client.attempts = 0;
    attempt(c);
  }

  void attempt(std::size_t c) {
    Client& client = clients_[c];
    ++client.attempts;
    client.started = sim_.scheduler->now();
    Span span(ledger_, Layer::kRun);
    sim_.clients[c]->run({client.op},
                         [this, c](TxnResult result) { on_result(c, result); });
  }

  void on_result(std::size_t c, const TxnResult& result) {
    Span span(ledger_, Layer::kClient);
    Client& client = clients_[c];
    if (measuring) {
      ++counts.attempted;
      switch (result.outcome) {
        case TxnOutcome::kCommitted:
          ++counts.committed;
          (client.op.is_write ? write_latency_us : read_latency_us)
              .push_back(static_cast<std::uint32_t>(sim_.scheduler->now() -
                                                    client.started));
          break;
        case TxnOutcome::kAborted: ++counts.aborted; break;
        case TxnOutcome::kBlocked: ++counts.blocked; break;
      }
    }
    if (result.outcome == TxnOutcome::kAborted &&
        client.attempts < kMaxAttempts) {
      sim_.scheduler->schedule_after(kRetryBackoff, [this, c] {
        Span retry(ledger_, Layer::kClient);
        attempt(c);
      });
      return;
    }
    ++ops_done_;
    if (measuring) {
      ++counts.ops;
      if (result.outcome == TxnOutcome::kAborted) ++counts.ops_failed;
    }
    next_op(c);
  }

  SimView sim_;
  double read_fraction_;
  std::uint64_t total_ops_;
  Ledger* ledger_;
  std::vector<Client> clients_;
  std::uint64_t ops_issued_ = 0;
  std::uint64_t ops_done_ = 0;
};

/// Pumps the scheduler in kPumpChunk slices until `done()`; false if the
/// event queue ran dry first (a stalled workload).
template <class Done>
bool pump(Scheduler& scheduler, Ledger* ledger, Done done) {
  while (!done()) {
    std::size_t ran = 0;
    {
      Span span(ledger, Layer::kSched);
      ran = scheduler.run(kPumpChunk);
    }
    if (ran == 0) return false;
  }
  return true;
}

/// Online reconfiguration at a fixed simulated cadence, alternating the
/// Algorithm-1 tree and a 16-level balanced tree. Each tick re-arms the
/// next; the chain only advances while the benchmark pumps the scheduler.
class ReconfigCadence {
 public:
  ReconfigCadence(const SimView& sim, Ledger* ledger)
      : sim_(sim), ledger_(ledger) {
    arm();
  }
  ReconfigCadence(const ReconfigCadence&) = delete;
  ReconfigCadence& operator=(const ReconfigCadence&) = delete;

  bool measuring = false;
  std::uint64_t measured_done = 0;  ///< transitions finished while measuring
  SimTime measured_sim_us = 0;      ///< their start -> done sim time

 private:
  void arm() {
    sim_.scheduler->schedule_after(kReconfigEvery, [this] { tick(); });
  }

  void tick() {
    Span span(ledger_, Layer::kReconfig);
    if (!sim_.reconfig->active()) {
      const auto tree = to_balanced_ ? atrcp::balanced_tree(kChurnSites, 16)
                                     : atrcp::algorithm1_tree(kChurnSites);
      to_balanced_ = !to_balanced_;
      started_at_ = sim_.scheduler->now();
      sim_.reconfig->start(
          wrap(std::make_unique<ArbitraryProtocol>(tree), ledger_),
          [this](bool) {
            if (!measuring) return;
            ++measured_done;
            measured_sim_us += sim_.scheduler->now() - started_at_;
          });
    }
    arm();
  }

  SimView sim_;
  Ledger* ledger_;
  bool to_balanced_ = true;
  SimTime started_at_ = 0;
};

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit) {
  out.push_back(Metric{std::move(name), value, std::move(unit)});
}

/// The per-layer metrics every workload shares, from counter deltas and the
/// ledger. Layers a workload does not time directly read 0.
std::vector<Metric> common_layers(const Counts& counts, const Snapshot& before,
                                  const Snapshot& after, const Ledger& ledger,
                                  double wall_s, const Rep& twin) {
  const double txns = static_cast<double>(counts.attempted);
  const auto per_txn = [&](std::uint64_t a, std::uint64_t b) {
    return ratio(static_cast<double>(b - a), txns);
  };
  const auto per_k = [&](std::uint64_t a, std::uint64_t b) {
    return 1000.0 * per_txn(a, b);
  };
  const auto ns_per = [&](Layer layer, double n) {
    return ratio(static_cast<double>(ledger.self_ns(layer)), n);
  };
  const auto calls = [&](Layer layer) {
    return static_cast<double>(ledger.calls(layer));
  };
  std::vector<Metric> m;
  add(m, "sim.events_per_txn", per_txn(before.events, after.events), "events");
  add(m, "sim.msgs_per_txn", per_txn(before.sent, after.sent), "msgs");
  add(m, "sim.bytes_per_txn", per_txn(before.bytes, after.bytes), "bytes");
  add(m, "sim.drop_frac",
      ratio(static_cast<double>(after.dropped - before.dropped),
            static_cast<double>(after.sent - before.sent)),
      "ratio");
  add(m, "sim.sched_ns_per_event",
      ns_per(Layer::kSched, static_cast<double>(after.events - before.events)),
      "ns");
  add(m, "replica.ns_per_msg", ns_per(Layer::kReplica, calls(Layer::kReplica)),
      "ns");
  add(m, "replica.msgs_per_txn",
      per_txn(before.replica_msgs, after.replica_msgs), "msgs");
  add(m, "txn.coord_ns_per_msg", ns_per(Layer::kCoord, calls(Layer::kCoord)),
      "ns");
  add(m, "txn.run_ns_per_txn", ns_per(Layer::kRun, calls(Layer::kRun)), "ns");
  add(m, "txn.lock_wait_p99_us", lock_wait_p99(before, after), "sim_us");
  add(m, "txn.lock_timeouts_per_ktxn",
      per_k(before.lock_timeouts, after.lock_timeouts), "count");
  add(m, "txn.reassemblies_per_ktxn",
      per_k(before.reassemblies, after.reassemblies), "count");
  add(m, "txn.unavailable_per_ktxn",
      per_k(before.unavailable, after.unavailable), "count");
  add(m, "txn.commit_retransmits_per_ktxn",
      per_k(before.retransmits, after.retransmits), "count");
  const auto& q = ledger.quorum;
  add(m, "quorum.read_ns",
      ns_per(Layer::kQuorumRead, calls(Layer::kQuorumRead)), "ns");
  add(m, "quorum.write_ns",
      ns_per(Layer::kQuorumWrite, calls(Layer::kQuorumWrite)), "ns");
  add(m, "quorum.assemblies_per_txn",
      ratio(static_cast<double>(q[0].attempts + q[1].attempts), txns),
      "count");
  add(m, "quorum.read_size_mean",
      ratio(static_cast<double>(q[0].members),
            static_cast<double>(q[0].attempts - q[0].failures)),
      "replicas");
  add(m, "quorum.write_size_mean",
      ratio(static_cast<double>(q[1].members),
            static_cast<double>(q[1].attempts - q[1].failures)),
      "replicas");
  add(m, "quorum.fail_per_ktxn",
      1000.0 * ratio(static_cast<double>(q[0].failures + q[1].failures), txns),
      "count");
  const double other_ns =
      wall_s * 1e9 - static_cast<double>(ledger.total_self_ns());
  add(m, "trace.other_frac", ratio(other_ns, wall_s * 1e9), "ratio");
  add(m, "trace.overhead_frac", ratio(wall_s, twin.measured_s) - 1.0,
      "ratio");
  return m;
}

/// Adds, as 0, every per-layer metric the workload did not produce: the
/// layers it does not run or does not time.
void fill_absent(std::vector<Metric>& m) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"reconfig.transitions", "count"},
      {"reconfig.host_ms_per_transition", "ms"},
      {"reconfig.sim_ms_per_transition", "sim_ms"},
      {"keyspace.run_ns_per_txn", "ns"},
      {"keyspace.distinct_keys", "count"},
      {"keyspace.light_txn_frac", "ratio"},
      {"keyspace.remap_moves", "count"},
      {"obs.bus_events_per_txn", "events"},
      {"obs.record_overhead_frac", "ratio"},
      {"obs.cpath_ns_per_txn", "ns"},
      {"check.merge_ns_per_txn", "ns"},
      {"check.serial_ns_per_txn", "ns"},
      {"check.lin_ns_per_key", "ns"},
      {"check.lin_skipped_frac", "ratio"},
  };
  for (const auto& [name, unit] : kAll) {
    const bool present = std::any_of(m.begin(), m.end(), [&](const Metric& x) {
      return x.name == name;
    });
    if (!present) add(m, name, 0, unit);
  }
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

void ledger_notes(const Ledger& ledger, double wall_s,
                  std::vector<std::string>& notes) {
  const double wall_ns = wall_s * 1e9;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    if (ledger.calls(layer) == 0) continue;
    const double ns = static_cast<double>(ledger.self_ns(layer));
    notes.push_back("ledger " + std::string(layer_name(layer)) +
                    " self_ms=" + fmt(ns * 1e-6) +
                    " share=" + fmt(ratio(ns, wall_ns)) +
                    " calls=" + std::to_string(ledger.calls(layer)) +
                    " ns_per_call=" +
                    fmt(ratio(ns, static_cast<double>(ledger.calls(layer)))));
  }
  const double other =
      wall_ns - static_cast<double>(ledger.total_self_ns());
  notes.push_back("ledger other self_ms=" + fmt(other * 1e-6) +
                  " share=" + fmt(ratio(other, wall_ns)) +
                  " (traced wall_ms=" + fmt(wall_ns * 1e-6) + ")");
}

void set_latency_counts(Rep& rep) {
  std::vector<std::uint32_t> all = rep.read_latency_us;
  all.insert(all.end(), rep.write_latency_us.begin(),
             rep.write_latency_us.end());
  rep.counts.commit_p50_us = percentile(all, 0.50);
  rep.counts.commit_p99_us = percentile(all, 0.99);
  rep.counts.read_p50_us = percentile(rep.read_latency_us, 0.50);
  rep.counts.write_p50_us = percentile(rep.write_latency_us, 0.50);
}

// -- hot64 and churn1024 -----------------------------------------------------

Rep run_cluster_rep(Workload workload, std::uint64_t seed, const RepSize& size,
                    Ledger* ledger, const Rep* twin) {
  const bool churn = workload == Workload::kChurn1024;
  ClusterOptions options;
  options.seed = seed;
  options.link = kLink;
  options.clients = kClients;
  options.enable_reconfig = churn;
  const auto initial = [&]() -> ProtocolPtr {
    if (churn) {
      return std::make_unique<ArbitraryProtocol>(
          atrcp::algorithm1_tree(kChurnSites));
    }
    return atrcp::make_arbitrary(64);
  };

  Rep rep;
  const std::uint64_t setup_start = now_ns();
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TracedCluster> traced;
  SimView sim;
  if (ledger != nullptr) {
    traced = std::make_unique<TracedCluster>(wrap(initial(), ledger), options,
                                             *ledger);
    sim = traced->view();
  } else {
    cluster = std::make_unique<Cluster>(initial(), options);
    sim = view_of(*cluster);
  }
  // Neither the crash process (no horizon) nor the reconfiguration chain
  // ends by itself: both advance only while pump() runs, and the measured
  // phase stops pumping at the last completion.
  std::optional<ReconfigCadence> cadence;
  if (churn) {
    sim.injector->start_random_failures(
        kMeanUp, kMeanDown, std::numeric_limits<SimTime>::max() / 2);
    cadence.emplace(sim, ledger);
  }

  ClosedLoop loop(sim, churn ? 0.9 : 0.5, seed ^ kLoopSalt,
                  size.warmup_ops + size.measured_ops, ledger);
  loop.start();
  bool ok = pump(*sim.scheduler, ledger,
                 [&] { return loop.ops_done() >= size.warmup_ops; });
  rep.setup_s = seconds(setup_start, now_ns());

  const Snapshot before = take({sim});
  if (ledger != nullptr) ledger->reset();
  loop.measuring = true;
  if (cadence) cadence->measuring = true;
  const std::uint64_t measure_start = now_ns();
  ok = ok && pump(*sim.scheduler, ledger, [&] { return loop.finished(); });
  rep.measured_s = seconds(measure_start, now_ns());
  const Snapshot after = take({sim});

  rep.counts = loop.counts;
  rep.counts.events = after.events - before.events;
  rep.counts.messages = after.sent - before.sent;
  rep.read_latency_us = std::move(loop.read_latency_us);
  rep.write_latency_us = std::move(loop.write_latency_us);
  set_latency_counts(rep);
  if (!ok) rep.gate_failure = "scheduler ran dry with operations pending";

  const ReplicaControlProtocol& model = *sim.protocol;
  QuorumTally& q = rep.quorums;
  q.cost = {model.read_cost(), model.write_cost()};
  std::array<double, 2> mean{};
  for (std::size_t k = 0; k < 2; ++k) {
    q.formed[k] = (after.q_attempts[k] - before.q_attempts[k]) -
                  (after.q_failures[k] - before.q_failures[k]);
    q.members[k] = after.q_members[k] - before.q_members[k];
    mean[k] = ratio(static_cast<double>(q.members[k]),
                    static_cast<double>(q.formed[k]));
  }
  rep.notes.push_back("quorum read_size_mean=" + fmt(mean[0]) +
                      " read_cost=" + fmt(q.cost[0]) + " write_size_mean=" +
                      fmt(mean[1]) + " write_cost=" + fmt(q.cost[1]) +
                      " writes=" + std::to_string(q.formed[1]) +
                      (churn ? " (epoch-0 protocol only)" : ""));
  if (churn) {
    const std::uint64_t crashes = after.crashes - before.crashes;
    const std::uint64_t transitions = after.transitions - before.transitions;
    rep.notes.push_back("churn crashes=" + std::to_string(crashes) +
                        " transitions=" + std::to_string(transitions));
    if (rep.gate_failure.empty() && (crashes == 0 || transitions == 0)) {
      rep.gate_failure = "churn1024 measured phase saw crashes=" +
                         std::to_string(crashes) + " transitions=" +
                         std::to_string(transitions);
    }
  }

  if (ledger != nullptr) {
    rep.layers = common_layers(rep.counts, before, after, *ledger,
                               rep.measured_s, *twin);
    if (churn) {
      const double transitions = static_cast<double>(cadence->measured_done);
      add(rep.layers, "reconfig.transitions", transitions, "count");
      add(rep.layers, "reconfig.host_ms_per_transition",
          1e-6 * ratio(static_cast<double>(ledger->self_ns(Layer::kReconfig)),
                       transitions),
          "ms");
      add(rep.layers, "reconfig.sim_ms_per_transition",
          1e-3 * ratio(static_cast<double>(cadence->measured_sim_us),
                       transitions),
          "sim_ms");
    }
    fill_absent(rep.layers);
    ledger_notes(*ledger, rep.measured_s, rep.notes);
  }
  return rep;
}

// -- ycsb_audit ---------------------------------------------------------------

atrcp::KeyspaceMix ycsb_a() {
  for (const atrcp::KeyspaceMix& mix : atrcp::standard_mixes()) {
    if (mix.name == "ycsb_a") return mix;
  }
  throw std::logic_error("standard_mixes() has no ycsb_a");
}

std::vector<SimView> views_of(atrcp::ShardedKeyspace& keyspace) {
  std::vector<SimView> views;
  for (std::size_t i = 0; i < keyspace.cluster_count(); ++i) {
    views.push_back(view_of(keyspace.cluster(i)));
  }
  return views;
}

std::unique_ptr<atrcp::ShardedKeyspace> build_keyspace(std::uint64_t seed,
                                                       bool observed,
                                                       Ledger* ledger) {
  atrcp::KeyspaceOptions options;
  options.shards = kShards;
  options.shard_protocol = [ledger] {
    return wrap(atrcp::make_arbitrary(64), ledger);
  };
  options.light_protocol = [ledger] {
    return wrap(atrcp::make_mostly_read(5), ledger);
  };
  options.clients = kClients;
  options.seed = seed;
  options.link = kLink;
  options.record_history = observed;
  options.event_bus_capacity = observed ? kBusCapacity : 0;
  return std::make_unique<atrcp::ShardedKeyspace>(std::move(options));
}

atrcp::KeyspaceRunOptions keyspace_run(std::uint64_t ops,
                                       std::uint64_t workload_seed) {
  atrcp::KeyspaceRunOptions options;
  options.mix = ycsb_a();
  options.records = kRecords;
  options.ops_per_client = std::max<std::uint64_t>(1, ops / kClients);
  options.workload_seed = workload_seed;
  options.batch_size = kBatchOps;
  options.promote_top_k = 4;
  return options;
}

/// check_keyspace_histories, re-assembled from the public pieces it calls so
/// each piece can be timed. Returns the same verdict.
bool audit_in_pieces(atrcp::ShardedKeyspace& keyspace, Ledger& ledger,
                     std::uint64_t& merged_txns, std::uint64_t& lin_checked,
                     std::uint64_t& lin_skipped) {
  const auto histories = keyspace.histories();
  const auto allowed = keyspace.remap().ever_remapped_keys();
  atrcp::MergedKeyspaceHistory merged;
  {
    Span span(&ledger, Layer::kCheckMerge);
    merged = atrcp::merge_keyspace_histories(histories, allowed);
  }
  merged_txns = merged.txns.size();
  bool ok = merged.routing_ok();
  {
    Span span(&ledger, Layer::kCheckSerial);
    const atrcp::SerializabilityChecker checker(std::move(merged.txns));
    ok = checker.check().ok && ok;
  }
  Span span(&ledger, Layer::kCheckLin);
  for (const atrcp::HistoryRecorder* history : histories) {
    const atrcp::SerializabilityChecker checker(history->txns());
    for (const Key key : checker.keys()) {
      if (std::binary_search(allowed.begin(), allowed.end(), key)) {
        ++lin_skipped;
        continue;
      }
      const atrcp::LinResult lin =
          checker.check_key_linearizable(key, kMaxLinOps);
      if (lin.skipped) {
        ++lin_skipped;
        continue;
      }
      ++lin_checked;
      ok = ok && lin.ok;
    }
  }
  return ok;
}

Rep run_keyspace_rep(std::uint64_t seed, const RepSize& size, Ledger* ledger,
                     const Rep* twin) {
  Rep rep;
  const std::uint64_t setup_start = now_ns();
  auto keyspace = build_keyspace(seed, true, ledger);
  atrcp::run_keyspace_workload(*keyspace,
                               keyspace_run(size.warmup_ops, seed ^ kWarmSalt));
  rep.setup_s = seconds(setup_start, now_ns());

  const std::vector<SimView> views = views_of(*keyspace);
  std::vector<std::size_t> history_mark;
  for (const auto* history : keyspace->histories()) {
    history_mark.push_back(history->txns().size());
  }
  const Snapshot before = take(views);
  if (ledger != nullptr) ledger->reset();
  const atrcp::KeyspaceRunOptions measured =
      keyspace_run(size.measured_ops, seed ^ kMeasureSalt);

  const std::uint64_t measure_start = now_ns();
  atrcp::KeyspaceStats stats;
  {
    Span span(ledger, Layer::kKeyspace);
    stats = atrcp::run_keyspace_workload(*keyspace, measured);
  }
  const std::uint64_t run_end = now_ns();
  bool audit_ok = false;
  std::uint64_t merged_txns = 0, lin_checked = 0, lin_skipped = 0;
  if (ledger != nullptr) {
    audit_ok = audit_in_pieces(*keyspace, *ledger, merged_txns, lin_checked,
                               lin_skipped);
  } else {
    const atrcp::KeyspaceCheckResult check = atrcp::check_keyspace_histories(
        keyspace->histories(), keyspace->remap().ever_remapped_keys(),
        kMaxLinOps);
    audit_ok = check.ok;
    if (!check.ok) rep.notes.push_back("audit report: " + check.report);
    lin_checked = check.lin_keys_checked;
    lin_skipped = check.lin_keys_skipped;
  }
  std::uint64_t cpath_txns = 0;
  for (std::size_t i = 0; i < keyspace->cluster_count(); ++i) {
    Span span(ledger, Layer::kCpath);
    cpath_txns +=
        atrcp::analyze_critical_paths(*keyspace->cluster(i).events())
            .txns_analyzed;
  }
  rep.measured_s = seconds(measure_start, now_ns());
  rep.keyspace_run_s = seconds(measure_start, run_end);
  const Snapshot after = take(views);

  Counts& c = rep.counts;
  c.ops = stats.issued;
  c.attempted = stats.txns;
  c.committed = stats.committed;
  c.aborted = stats.aborted;
  c.blocked = stats.blocked;
  c.ops_failed = stats.aborted;
  c.events = after.events - before.events;
  c.messages = after.sent - before.sent;
  const auto histories = keyspace->histories();
  for (std::size_t i = 0; i < histories.size(); ++i) {
    const auto& txns = histories[i]->txns();
    for (std::size_t t = history_mark[i]; t < txns.size(); ++t) {
      const atrcp::HistoryTxn& txn = txns[t];
      if (txn.outcome != atrcp::HistoryOutcome::kCommitted) continue;
      const bool writes =
          std::any_of(txn.ops.begin(), txn.ops.end(),
                      [](const atrcp::HistoryOp& op) { return op.is_write; });
      (writes ? rep.write_latency_us : rep.read_latency_us)
          .push_back(static_cast<std::uint32_t>(txn.span.end - txn.span.begin));
    }
  }
  set_latency_counts(rep);

  rep.notes.push_back(
      "audit " + std::string(audit_ok ? "OK" : "FAILED") +
      " lin_keys_checked=" + std::to_string(lin_checked) +
      " lin_keys_skipped=" + std::to_string(lin_skipped) +
      " cpath_txns=" + std::to_string(cpath_txns) + " " + stats.line());
  if (!audit_ok) {
    rep.gate_failure = "ycsb_audit key-aware check reported a violation";
  }

  if (ledger != nullptr) {
    // The same seed with the flight recorder and history off, untimed by
    // the ledger: the price of recording.
    auto bare = build_keyspace(seed, false, nullptr);
    atrcp::run_keyspace_workload(
        *bare, keyspace_run(size.warmup_ops, seed ^ kWarmSalt));
    const std::uint64_t bare_start = now_ns();
    atrcp::run_keyspace_workload(*bare, measured);
    const double bare_s = seconds(bare_start, now_ns());

    rep.layers = common_layers(c, before, after, *ledger, rep.measured_s,
                               *twin);
    const double txns = static_cast<double>(c.attempted);
    std::set<Key> distinct;
    std::uint64_t published = 0;
    for (std::size_t i = 0; i < keyspace->cluster_count(); ++i) {
      Cluster& cluster = keyspace->cluster(i);
      for (std::size_t r = 0; r < cluster.replica_count(); ++r) {
        for (const Key key :
             cluster.server(static_cast<atrcp::ReplicaId>(r)).store().keys()) {
          distinct.insert(key);
        }
      }
      published += cluster.events()->total_published();
    }
    const auto ns_per = [&](Layer layer, double n) {
      return ratio(static_cast<double>(ledger->self_ns(layer)), n);
    };
    add(rep.layers, "keyspace.run_ns_per_txn",
        ratio(twin->keyspace_run_s * 1e9, txns), "ns");
    add(rep.layers, "keyspace.distinct_keys",
        static_cast<double>(distinct.size()), "count");
    add(rep.layers, "keyspace.light_txn_frac",
        ratio(static_cast<double>(
                  stats.txns_per_cluster[keyspace->light_index()]),
              txns),
        "ratio");
    add(rep.layers, "keyspace.remap_moves",
        static_cast<double>(stats.promoted + stats.restored), "count");
    add(rep.layers, "obs.bus_events_per_txn",
        ratio(static_cast<double>(published), txns), "events");
    add(rep.layers, "obs.record_overhead_frac",
        ratio(twin->keyspace_run_s, bare_s) - 1.0, "ratio");
    add(rep.layers, "obs.cpath_ns_per_txn", ns_per(Layer::kCpath, txns), "ns");
    add(rep.layers, "check.merge_ns_per_txn",
        ns_per(Layer::kCheckMerge, static_cast<double>(merged_txns)), "ns");
    add(rep.layers, "check.serial_ns_per_txn",
        ns_per(Layer::kCheckSerial, static_cast<double>(merged_txns)), "ns");
    add(rep.layers, "check.lin_ns_per_key",
        ns_per(Layer::kCheckLin, static_cast<double>(lin_checked)), "ns");
    add(rep.layers, "check.lin_skipped_frac",
        ratio(static_cast<double>(lin_skipped),
              static_cast<double>(lin_checked + lin_skipped)),
        "ratio");
    fill_absent(rep.layers);
    ledger_notes(*ledger, rep.measured_s, rep.notes);
  }
  return rep;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kHot64, Workload::kChurn1024, Workload::kYcsbAudit}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kHot64: return "hot64";
    case Workload::kChurn1024: return "churn1024";
    case Workload::kYcsbAudit: return "ycsb_audit";
  }
  return "?";
}

RepSize default_size(Workload workload) {
  switch (workload) {
    case Workload::kHot64: return {500, 5'000};
    case Workload::kChurn1024: return {800, 8'000};
    case Workload::kYcsbAudit: return {500, 3'000};
  }
  return {};
}

std::string Counts::to_string() const {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"ops", ops},
      {"ops_failed", ops_failed},
      {"attempted", attempted},
      {"committed", committed},
      {"aborted", aborted},
      {"blocked", blocked},
      {"events", events},
      {"messages", messages},
      {"commit_p50_us", commit_p50_us},
      {"commit_p99_us", commit_p99_us},
      {"read_p50_us", read_p50_us},
      {"write_p50_us", write_p50_us},
  };
  std::string out;
  for (const auto& [name, value] : fields) {
    if (!out.empty()) out += ' ';
    out += std::string(name) + "=" + std::to_string(value);
  }
  return out;
}

Rep run_rep(Workload workload, std::uint64_t seed, const RepSize& size,
            Ledger* ledger, const Rep* twin) {
  if (workload == Workload::kYcsbAudit) {
    return run_keyspace_rep(seed, size, ledger, twin);
  }
  return run_cluster_rep(workload, seed, size, ledger, twin);
}

std::string quorum_gate(Workload workload,
                        const std::vector<QuorumTally>& tallies) {
  if (workload != Workload::kHot64) return "";
  std::array<double, 2> formed{}, members{};
  for (const QuorumTally& t : tallies) {
    for (std::size_t k = 0; k < 2; ++k) {
      formed[k] += static_cast<double>(t.formed[k]);
      members[k] += static_cast<double>(t.members[k]);
    }
  }
  const std::array<double, 2> cost = tallies.front().cost;
  const double read_mean = ratio(members[0], formed[0]);
  const double write_mean = ratio(members[1], formed[1]);
  // No failures: every read quorum takes one replica per physical level,
  // so the mean is exactly |K_phy|; write levels are drawn uniformly.
  if (read_mean != cost[0]) {
    return "hot64 read quorum mean " + fmt(read_mean) + " != read_cost " +
           fmt(cost[0]);
  }
  if (std::abs(write_mean - cost[1]) > 0.05 * cost[1]) {
    return "hot64 write quorum mean " + fmt(write_mean) +
           " is more than 5% from write_cost " + fmt(cost[1]) + " (" +
           std::to_string(tallies.size()) + " reps pooled)";
  }
  return "";
}

std::uint64_t percentile(std::vector<std::uint32_t> sample, double q) {
  if (sample.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(sample.begin(), sample.begin() + index, sample.end());
  return sample[index];
}

}  // namespace perfbench
