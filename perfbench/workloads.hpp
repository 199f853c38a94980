// The benchmark's three workloads and the one closed loop they share.
//
// A repetition ("rep") builds a fresh system, warms it up, then runs the
// measured phase. Everything a rep counts in simulated units is a pure
// function of (workload, seed, size); only its wall-clock figures vary
// between runs. Passing a Ledger makes the rep traced: the hot64 and
// churn1024 clusters are then wired by hand with timing proxies, and the
// ycsb_audit keyspace gets timing protocol decorators.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kHot64, kChurn1024, kYcsbAudit };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// Client operations per rep, split into warm-up and measured phases.
struct RepSize {
  std::uint64_t warmup_ops = 0;
  std::uint64_t measured_ops = 0;
};

/// The size of one rep.
RepSize default_size(Workload workload);

/// Deterministic results of the measured phase. A traced rep must
/// reproduce its untraced twin's Counts exactly.
struct Counts {
  std::uint64_t ops = 0;         ///< client operations completed
  std::uint64_t ops_failed = 0;  ///< operations that never committed
  std::uint64_t attempted = 0;   ///< transactions (retries included)
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t events = 0;      ///< Scheduler::executed delta
  std::uint64_t messages = 0;    ///< Network::messages_sent delta
  std::uint64_t commit_p50_us = 0;
  std::uint64_t commit_p99_us = 0;
  std::uint64_t read_p50_us = 0;   ///< read-only transactions
  std::uint64_t write_p50_us = 0;  ///< transactions that write

  bool operator==(const Counts&) const = default;
  std::string to_string() const;
};

/// Quorums formed in a rep's measured phase ([0] read, [1] write), their
/// total membership, and the protocol's cost model.
struct QuorumTally {
  std::array<std::uint64_t, 2> formed{};
  std::array<std::uint64_t, 2> members{};
  std::array<double, 2> cost{};
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Rep {
  Counts counts;
  /// Simulated latency of every committed measured transaction, split
  /// into read-only transactions and transactions that write.
  std::vector<std::uint32_t> read_latency_us;
  std::vector<std::uint32_t> write_latency_us;
  QuorumTally quorums;
  double setup_s = 0;     ///< construction + warm-up, wall
  double measured_s = 0;  ///< measured phase, wall
  /// ycsb_audit: the run_keyspace_workload part of measured_s.
  double keyspace_run_s = 0;
  /// Empty when every correctness gate held; otherwise why not.
  std::string gate_failure;
  /// Workload facts printed in the report (quorum sizes vs cost model,
  /// crashes, transitions, audit result).
  std::vector<std::string> notes;
  /// Per-layer metrics; filled by traced reps only.
  std::vector<Metric> layers;
};

/// Runs one rep. `ledger` non-null makes it traced; `twin` is then the
/// untraced rep of the same seed (for the overhead ratios).
Rep run_rep(Workload workload, std::uint64_t seed, const RepSize& size,
            Ledger* ledger, const Rep* twin);

/// The hot64 cost-model gate, checked on the quorums of one rep per input
/// pooled: a single short rep draws too few write quorums for the 5%
/// tolerance. Empty when the gate holds or the workload has none;
/// otherwise why not.
std::string quorum_gate(Workload workload,
                        const std::vector<QuorumTally>& tallies);

/// Nearest-rank percentile of a sample (q in [0, 1]); 0 when empty.
std::uint64_t percentile(std::vector<std::uint32_t> sample, double q);

}  // namespace perfbench
