// steady_bench: the steady-state benchmark of the replicated store.
//
//   steady_bench --workload hot64|churn1024|ycsb_audit --seed N --seconds S
//                --trace 0|1
//
// --trace 0 cycles fixed-size reps over a few seeds ("inputs") derived from
// --seed and reports the end-to-end metrics: wall-clock figures over a fixed
// number of timed reps, rescaled to a reference host speed (see
// reference_s), simulated figures pooled over the inputs. The run then
// keeps repeating inputs until --seconds of wall time are used; every repeat
// of an input must reproduce its counts exactly.
// --trace 1 runs an untraced and a traced rep of each input in turn, at
// least one pair per input, and reports the per-layer ledger. Every rep
// passes the correctness gates, and so do the pooled first reps of the
// inputs, or the program exits 1 without printing a result. The last stdout
// line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::kHot64;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "steady_bench: %s\nusage: steady_bench --workload "
               "hot64|churn1024|ycsb_audit --seed N --seconds S --trace 0|1\n",
               error.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload " + value);
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    return brand.substr(brand.find_first_not_of(' '));
  }
#endif
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Runs a rep and enforces its gates; exits 1 (printing no result) if one
/// failed.
Rep checked_rep(Workload workload, std::uint64_t seed, const RepSize& size,
                Ledger* ledger, const Rep* twin) {
  Rep rep = run_rep(workload, seed, size, ledger, twin);
  if (!rep.gate_failure.empty()) {
    for (const std::string& note : rep.notes) {
      std::fprintf(stderr, "  %s\n", note.c_str());
    }
    std::fprintf(stderr, "GATE FAILED (%s rep, seed %llu): %s\n",
                 ledger ? "traced" : "untraced",
                 static_cast<unsigned long long>(seed),
                 rep.gate_failure.c_str());
    std::exit(1);
  }
  return rep;
}

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_metric(const Metric& m, const std::string& detail) {
  std::printf("metric %-34s %14.6g %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), detail.c_str());
}

/// Exits 1 (printing no result) if the first reps of the inputs, pooled,
/// fail the quorum cost-model gate.
void check_pooled(Workload workload, const std::vector<QuorumTally>& tallies) {
  const std::string failure = quorum_gate(workload, tallies);
  if (!failure.empty()) {
    std::fprintf(stderr, "GATE FAILED: %s\n", failure.c_str());
    std::exit(1);
  }
}

/// The rep seeds of a run: `count` seeds derived from --seed.
std::vector<std::uint64_t> input_seeds(std::uint64_t seed, std::size_t count) {
  atrcp::SplitMix64 stream(seed);
  std::vector<std::uint64_t> seeds(count);
  for (std::uint64_t& s : seeds) s = stream.next();
  return seeds;
}

/// How an untraced run samples a workload. Both counts are fixed, so two
/// builds are always judged on the same number of samples. The timed reps
/// take 12-40 s on a shared 4-core 2.1 GHz Xeon. churn1024's work per
/// commit depends on its seed's crash pattern, so it pools many inputs.
struct Sampling {
  std::size_t inputs;          ///< distinct rep seeds
  std::size_t reps_per_input;  ///< timed reps of each input
};

Sampling sampling(Workload workload) {
  switch (workload) {
    case Workload::kHot64: return {6, 24};
    case Workload::kChurn1024: return {16, 2};
    case Workload::kYcsbAudit: return {8, 10};
  }
  return {1, 1};
}

/// Wall time of a fixed host-speed reference kernel, in seconds.
///
/// Other tenants of a shared host slow its cores, by amounts that change
/// from second to second and in steps that last minutes. A thread's CPU
/// time grows with its wall time under that load, so it is slower cores,
/// not waits for a core. The kernel does what the simulator's inner loop
/// does (a binary-heap event queue, hash-map updates, one small heap
/// allocation per event) in code of the benchmark's own, so no change to
/// the library changes its time. Timed between the timed reps, its mean
/// time tracks the mean slowdown those reps saw, and the wall figures are
/// rescaled by kReferenceS over that mean.
double reference_s() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  const std::uint64_t start = now_ns();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, std::uint64_t> state;
  atrcp::SplitMix64 rng(7);
  for (std::uint32_t id = 0; id < 1024; ++id) {
    queue.push({rng.next() % 1000, id});
  }
  std::uint64_t sum = 0;
  for (std::size_t step = 0; step < (1u << 16); ++step) {
    const auto [time, id] = queue.top();
    queue.pop();
    state[(id * 2654435761u) % 65536] += time;
    const std::vector<std::uint32_t> message(4 + id % 8, id);
    sum += message.back();
    queue.push({time + 50 + rng.next() % 20,
                static_cast<std::uint32_t>((id + message.size()) % 4096)});
  }
  const std::uint64_t end = now_ns();
  // Keeps the loop's result live, so the compiler cannot drop the work.
  if (sum == 0) std::fprintf(stderr, "reference kernel summed to 0\n");
  return static_cast<double>(end - start) * 1e-9;
}

/// About reference_s()'s mean time in a run on a shared 4-core 2.1 GHz
/// Xeon (KVM guest). On a host where the kernel takes this long the
/// rescaled figures read as wall time.
constexpr double kReferenceS = 0.01;
/// Kernel timings per run, spread evenly before the timed reps.
constexpr std::size_t kReferenceSamples = 96;

int run_untraced(const Args& args, const RepSize& size) {
  const auto [input_count, per_input] = sampling(args.workload);
  const auto inputs = input_seeds(args.seed, input_count);
  const std::size_t timed = input_count * per_input;
  const std::size_t refs_per_rep = (kReferenceSamples + timed - 1) / timed;
  const std::uint64_t start = now_ns();
  std::vector<Rep> reps;
  std::vector<QuorumTally> tallies;
  double rss_mib = 0;
  double reference_total_s = 0;
  for (std::size_t r = 0;; ++r) {
    double reference_rep_s = 0;
    for (std::size_t k = 0; r < timed && k < refs_per_rep; ++k) {
      reference_rep_s += reference_s();
    }
    reference_total_s += reference_rep_s;
    const std::uint64_t rep_start = now_ns();
    Rep rep = checked_rep(args.workload, inputs[r % input_count], size, nullptr,
                          nullptr);
    if (r < input_count) tallies.push_back(rep.quorums);
    if (r + 1 == input_count) {
      // Read after one rep per input: identical repeats would only add
      // allocator noise to the high-water mark.
      rss_mib = peak_rss_mib();
      check_pooled(args.workload, tallies);
    }
    if (r >= input_count) {
      if (rep.counts != reps[r - input_count].counts) {
        std::fprintf(stderr,
                     "GATE FAILED: a repeated input gave different counts\n"
                     "  first  %s\n  repeat %s\n",
                     reps[r - input_count].counts.to_string().c_str(),
                     rep.counts.to_string().c_str());
        return 1;
      }
      rep.read_latency_us = {};
      rep.write_latency_us = {};
    }
    std::printf("rep %zu input %zu setup_s=%.6f measured_s=%.6f "
                "commits_per_s=%.1f reference_s=%.6f\n",
                r, r % input_count, rep.setup_s, rep.measured_s,
                ratio(static_cast<double>(rep.counts.committed),
                      rep.measured_s),
                ratio(reference_rep_s, static_cast<double>(
                                           r < timed ? refs_per_rep : 0)));
    reps.push_back(std::move(rep));
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double last = static_cast<double>(now_ns() - rep_start) * 1e-9;
    if (reps.size() >= timed && elapsed + last > args.seconds) break;
  }

  // Wall figures over the timed reps, every input the same number of
  // times: total commits over total measured time, and the median set-up.
  // The reference kernel ran between the same reps, so its mean time saw
  // the same host slowdown on average. Reps past the timed ones only feed
  // the repeated-counts gate.
  double measured_s = 0;
  std::vector<double> setups;
  std::uint64_t timed_commits = 0, ops = 0, ops_failed = 0;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    if (r < timed) {
      measured_s += reps[r].measured_s;
      setups.push_back(reps[r].setup_s);
      timed_commits += reps[r].counts.committed;
    }
    ops += reps[r].counts.ops;
    ops_failed += reps[r].counts.ops_failed;
  }
  // Simulated figures: pooled over the inputs' first reps, so they are a
  // function of --seed alone.
  Counts pooled;
  std::vector<std::uint32_t> reads, writes;
  for (std::size_t k = 0; k < input_count; ++k) {
    const Counts& c = reps[k].counts;
    pooled.attempted += c.attempted;
    pooled.committed += c.committed;
    pooled.aborted += c.aborted;
    pooled.blocked += c.blocked;
    pooled.messages += c.messages;
    reads.insert(reads.end(), reps[k].read_latency_us.begin(),
                 reps[k].read_latency_us.end());
    writes.insert(writes.end(), reps[k].write_latency_us.begin(),
                  reps[k].write_latency_us.end());
  }
  std::vector<std::uint32_t> all = reads;
  all.insert(all.end(), writes.begin(), writes.end());
  const double attempted = static_cast<double>(pooled.attempted);
  const double committed = static_cast<double>(pooled.committed);
  const double reference_timings = static_cast<double>(refs_per_rep * timed);
  const double reference_mean_s = reference_total_s / reference_timings;
  // Wall seconds at the reference host speed.
  const double scale = kReferenceS / reference_mean_s;
  const double commits_per_wall_s =
      ratio(static_cast<double>(timed_commits), measured_s);
  const double median_setup_s = median(setups);

  for (const std::string& note : reps.front().notes) {
    std::printf("rep0 %s\n", note.c_str());
  }
  std::printf("counts rep0 %s\n", reps.front().counts.to_string().c_str());
  // Latency is reported per operation type: the mixes put ~half (YCSB-A,
  // hot64) or ~90% (churn1024) of commits in the read mode, so the median
  // of the union sits on the boundary between two modes and flips between
  // them from seed to seed. The union's p50 is printed, not contracted.
  const std::vector<Metric> metrics = {
      {"commits_per_s", commits_per_wall_s / scale, "txn/s"},
      {"setup_s", median_setup_s * scale, "s"},
      {"read_p50_us", static_cast<double>(percentile(reads, 0.50)), "sim_us"},
      {"write_p50_us", static_cast<double>(percentile(writes, 0.50)),
       "sim_us"},
      {"commit_p99_us", static_cast<double>(percentile(all, 0.99)), "sim_us"},
      {"commit_frac", ratio(committed, attempted), "ratio"},
      {"msgs_per_commit",
       ratio(static_cast<double>(pooled.messages), committed), "msgs"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
  const std::string over_reps = " over " + std::to_string(timed) +
                                " timed reps, " + std::to_string(per_input) +
                                " of each of " + std::to_string(input_count) +
                                " inputs)";
  const auto commits = [](const std::vector<std::uint32_t>& v) {
    return "(" + std::to_string(v.size()) + " commits)";
  };
  const std::string txns = "(" + std::to_string(pooled.attempted) + " txns)";
  const std::string rescaled = std::to_string(scale) + ", the host-speed scale)";
  print_metric({"reference_s", reference_mean_s, "s"},
               "(mean of " + std::to_string(refs_per_rep * timed) +
                   " reference kernel timings; nominal " +
                   std::to_string(kReferenceS) + ")");
  print_metric({"commits_per_wall_s", commits_per_wall_s, "txn/s"},
               "(" + std::to_string(timed_commits) + " commits" + over_reps);
  print_metric({"setup_wall_s", median_setup_s, "s"}, "(median" + over_reps);
  print_metric(metrics[0], "(commits_per_wall_s / " + rescaled);
  print_metric(metrics[1], "(setup_wall_s x " + rescaled);
  print_metric({"commit_p50_us", static_cast<double>(percentile(all, 0.50)),
                "sim_us"},
               commits(all));
  print_metric(metrics[2], commits(reads));
  print_metric(metrics[3], commits(writes));
  print_metric(metrics[4], commits(all));
  print_metric({"failed_frac",
                ratio(static_cast<double>(pooled.aborted + pooled.blocked),
                      attempted),
                "ratio"},
               txns + " aborted=" + std::to_string(pooled.aborted) +
                   " blocked=" + std::to_string(pooled.blocked));
  print_metric(metrics[5], txns + " = 1 - failed_frac");
  print_metric(metrics[6], txns);
  print_metric(metrics[7], "(process peak after one rep per input)");
  print_result(ops, ops_failed, metrics);
  return 0;
}

int run_traced(const Args& args, const RepSize& size) {
  const std::size_t input_count = sampling(args.workload).inputs;
  const auto inputs = input_seeds(args.seed, input_count);
  const std::uint64_t start = now_ns();
  std::vector<std::vector<Metric>> layers;  // one list per traced rep
  std::vector<std::string> notes;
  std::vector<Counts> firsts;  // each input's first untraced counts
  std::vector<QuorumTally> tallies;
  std::uint64_t ops = 0, ops_failed = 0;
  for (std::size_t pair = 0;; ++pair) {
    const std::uint64_t pair_start = now_ns();
    const std::uint64_t seed = inputs[pair % input_count];
    const Rep untraced =
        checked_rep(args.workload, seed, size, nullptr, nullptr);
    Ledger ledger;
    const Rep traced =
        checked_rep(args.workload, seed, size, &ledger, &untraced);
    if (pair < input_count) {
      firsts.push_back(untraced.counts);
      tallies.push_back(untraced.quorums);
    }
    if (pair + 1 == input_count) check_pooled(args.workload, tallies);
    const Counts& first = firsts[pair % input_count];
    if (traced.counts != untraced.counts || untraced.counts != first) {
      std::fprintf(stderr,
                   "GATE FAILED: traced run diverged from the untraced run\n"
                   "  untraced %s\n  traced   %s\n  first    %s\n",
                   untraced.counts.to_string().c_str(),
                   traced.counts.to_string().c_str(),
                   first.to_string().c_str());
      return 1;
    }
    ops += untraced.counts.ops;
    ops_failed += untraced.counts.ops_failed;
    layers.push_back(traced.layers);
    if (pair == 0) notes = traced.notes;
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double last = static_cast<double>(now_ns() - pair_start) * 1e-9;
    if (pair + 1 >= input_count && elapsed + last > args.seconds) break;
  }
  for (const std::string& note : notes) {
    std::printf("traced %s\n", note.c_str());
  }
  std::printf("counts traced=untraced %s\n",
              firsts.front().to_string().c_str());
  // Every traced rep lists the same metrics in the same order.
  std::vector<Metric> metrics = layers.front();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> values;
    for (const auto& rep_layers : layers) values.push_back(rep_layers[i].value);
    metrics[i].value = median(values);
    print_metric(metrics[i], "(median of " + std::to_string(values.size()) +
                                 " traced reps)");
  }
  print_result(ops, ops_failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const RepSize size = default_size(args.workload);
  std::printf(
      "host cpu=\"%s\" nproc=%u compiler=\"%s\" flags=\"%s\" build=%s\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE);
  std::printf("workload %s seed=%llu warmup_ops=%llu measured_ops=%llu "
              "clients=4 trace=%d\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(size.warmup_ops),
              static_cast<unsigned long long>(size.measured_ops),
              args.trace ? 1 : 0);
  return args.trace ? run_traced(args, size) : run_untraced(args, size);
}
