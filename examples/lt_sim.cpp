// lt_sim: deterministic whole-system chaos simulation with an oracle.
//
// Runs a complete LittleTable deployment — DB, server, client, wire
// protocol — inside one process on a simulated network (sim::SimTransport)
// and simulated storage, while a seeded scheduler injects crashes,
// partitions, torn frames, ENOSPC, and mid-protocol kill points. After
// every simulated crash + reopen an oracle checks the paper's §3.1
// durability contract against a model of everything inserted.
//
// Usage:
//   lt_sim [--seed=N] [--ops=N] [--faults=RATE] [--devices=N]
//          [--seeds=N]        sweep seeds seed..seed+N-1, stop at first
//                             failure
//   lt_sim --cluster ...      multi-node mode: coordinator + two-node
//                             replicated shard groups (--groups=N) driven
//                             through the routing ClusterClient, with
//                             primary crashes, failovers, and replication
//                             link partitions in the fault mix
//   lt_sim --overload ...     overload mode: firehose queries, slow
//                             readers, cancels, and disconnects against
//                             tight admission/budget knobs; the oracle
//                             asserts bounded accounted memory and that
//                             every shed request got an explicit error
//   lt_sim --verify-seed=N    run seed N twice and require byte-identical
//                             event logs (and, with --sample-every,
//                             byte-identical __sys_metrics dumps — the
//                             determinism contract)
//   lt_sim --print-log ...    dump the event log after the run
//   lt_sim --sample-every=N   run the self-monitoring sampler in
//                             deterministic mode, one sample per N ops;
//                             the oracle then also checks the system
//                             tables' prefix durability across crashes
//   lt_sim --dump-sys-metrics print the surviving __sys_metrics rows
//
// Every run is a pure function of its seed: a failure printed as
// "FAIL seed=N ..." reproduces exactly with `lt_sim --seed=N --print-log`.
// Exit status: 0 all oracles passed, 1 violation or harness failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "sim/chaos.h"
#include "sim/cluster_chaos.h"
#include "sim/overload_chaos.h"

using namespace lt;

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// One harness as lt_sim drives it: how to run a seed, and how to print it.
struct Harness {
  std::function<Status(uint64_t seed, sim::SimReport*)> run;
  std::string mode_flag;    // "", "--cluster " or "--overload ".
  std::string repro_flags;  // The options that reproduce a run, after --seed.
  /// Overload runs promise no determinism, so a failing run's log is the one
  /// record of its interleaving (the nightly batch uploads it): always print.
  bool log_on_failure = false;
  /// The single-node log starts on the "ok seed=N events=M" line itself;
  /// kept so pinned outputs stay byte-identical.
  bool log_on_ok_line = false;
};

void PrintReport(const sim::SimReport& report, bool print_log,
                 bool dump_sys) {
  if (print_log) {
    for (const std::string& line : report.event_log) {
      std::printf("%s\n", line.c_str());
    }
  }
  for (const auto& [key, value] : report.counters) {
    std::printf("  %s=%llu", key.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
  if (dump_sys) {
    for (const std::string& line : report.sys_metrics) {
      std::printf("sys %s\n", line.c_str());
    }
  }
}

int RunOne(const Harness& h, uint64_t seed, bool print_log, bool dump_sys) {
  sim::SimReport report;
  Status s = h.run(seed, &report);
  if (!s.ok()) {
    std::printf("FAIL seed=%llu harness error: %s\n",
                static_cast<unsigned long long>(seed), s.ToString().c_str());
    return 1;
  }
  if (!report.ok) {
    std::printf("FAIL seed=%llu oracle: %s\n",
                static_cast<unsigned long long>(seed), report.failure.c_str());
    std::printf("reproduce with: lt_sim %s--seed=%llu%s --print-log\n",
                h.mode_flag.c_str(), static_cast<unsigned long long>(seed),
                h.repro_flags.c_str());
    PrintReport(report, print_log || h.log_on_failure, dump_sys);
    return 1;
  }
  std::printf("ok seed=%llu events=%zu", static_cast<unsigned long long>(seed),
              report.event_log.size());
  if (print_log && !h.log_on_ok_line) std::printf("\n");
  PrintReport(report, print_log, dump_sys);
  return 0;
}

/// Runs `seed` twice and requires byte-identical event logs and
/// __sys_metrics dumps (the determinism contract).
int VerifySeed(const Harness& h, uint64_t seed) {
  sim::SimReport a, b;
  Status s = h.run(seed, &a);
  if (s.ok()) s = h.run(seed, &b);
  if (!s.ok()) {
    std::printf("FAIL seed=%llu harness error: %s\n",
                static_cast<unsigned long long>(seed), s.ToString().c_str());
    return 1;
  }
  if (a.sys_metrics != b.sys_metrics) {
    std::printf("FAIL seed=%llu nondeterministic: __sys_metrics dumps "
                "differ (%zu vs %zu rows)\n",
                static_cast<unsigned long long>(seed), a.sys_metrics.size(),
                b.sys_metrics.size());
    return 1;
  }
  if (a.event_log != b.event_log) {
    size_t i = 0;
    while (i < a.event_log.size() && i < b.event_log.size() &&
           a.event_log[i] == b.event_log[i]) {
      i++;
    }
    std::printf("FAIL seed=%llu nondeterministic: logs diverge at line %zu\n",
                static_cast<unsigned long long>(seed), i);
    std::printf("  run1: %s\n", i < a.event_log.size()
                                    ? a.event_log[i].c_str()
                                    : "<end of log>");
    std::printf("  run2: %s\n", i < b.event_log.size()
                                    ? b.event_log[i].c_str()
                                    : "<end of log>");
    return 1;
  }
  std::printf("ok seed=%llu deterministic (%zu log lines)\n",
              static_cast<unsigned long long>(seed), a.event_log.size());
  return a.ok && b.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ChaosOptions opts;
  int seeds = 1;
  bool print_log = false;
  bool verify = false;
  bool dump_sys = false;
  bool cluster = false;
  bool overload = false;
  int groups = 1;
  for (int i = 1; i < argc; i++) {
    std::string v;
    if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (ParseFlag(argv[i], "--groups", &v)) {
      groups = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--ops", &v)) {
      opts.ops = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--faults", &v)) {
      opts.fault_rate = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--devices", &v)) {
      opts.devices = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--seeds", &v)) {
      seeds = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--sample-every", &v)) {
      opts.sample_every_ops = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--verify-seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
      verify = true;
    } else if (std::strcmp(argv[i], "--print-log") == 0) {
      print_log = true;
    } else if (std::strcmp(argv[i], "--dump-sys-metrics") == 0) {
      dump_sys = true;
    } else {
      std::fprintf(stderr,
                   "usage: lt_sim [--cluster] [--overload] [--groups=N] "
                   "[--seed=N] [--ops=N] [--faults=RATE] [--devices=N] "
                   "[--seeds=N] [--sample-every=N] [--verify-seed=N] "
                   "[--print-log] [--dump-sys-metrics]\n");
      return 2;
    }
  }
  Harness h;
  char repro[128];
  if (overload) {
    sim::OverloadChaosOptions oopts;
    if (opts.ops != 200) oopts.ops = opts.ops;  // 200 = ChaosOptions default.
    oopts.devices = opts.devices;
    h.run = [oopts](uint64_t seed, sim::SimReport* report) mutable {
      oopts.seed = seed;
      return sim::RunOverloadChaos(oopts, report);
    };
    h.mode_flag = "--overload ";
    std::snprintf(repro, sizeof(repro), " --ops=%d", oopts.ops);
    h.log_on_failure = true;
  } else if (cluster) {
    sim::ClusterChaosOptions copts;
    copts.ops = opts.ops;
    copts.fault_rate = opts.fault_rate;
    copts.devices = opts.devices;
    copts.groups = groups;
    h.run = [copts](uint64_t seed, sim::SimReport* report) mutable {
      copts.seed = seed;
      return sim::RunClusterChaos(copts, report);
    };
    h.mode_flag = "--cluster ";
    std::snprintf(repro, sizeof(repro),
                  " --ops=%d --faults=%g --devices=%d --groups=%d", copts.ops,
                  copts.fault_rate, copts.devices, copts.groups);
  } else {
    h.run = [opts](uint64_t seed, sim::SimReport* report) mutable {
      opts.seed = seed;
      return sim::RunChaos(opts, report);
    };
    std::snprintf(repro, sizeof(repro), " --ops=%d --faults=%g --devices=%d",
                  opts.ops, opts.fault_rate, opts.devices);
    h.log_on_ok_line = true;
  }
  h.repro_flags = repro;
  // Overload runs make no determinism promise; --verify-seed only picks
  // their seed.
  if (verify && !overload) return VerifySeed(h, opts.seed);
  for (int i = 0; i < seeds; i++) {
    if (RunOne(h, opts.seed + static_cast<uint64_t>(i), print_log, dump_sys) !=
        0) {
      return 1;
    }
  }
  return 0;
}
