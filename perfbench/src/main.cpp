// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload <day|day-100k|write-heavy> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-file <path>]
//
// A run replays whole days of its workload, one after another on one
// thread, until `--seconds` have passed and each of the workload's distinct
// days has run at least once. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it replays every day twice, untraced then traced,
// and prints the per-layer metrics. Wall-clock end-to-end metrics are scaled
// to a reference machine speed, gauged before each day (gaugeSeconds). The
// last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "replay.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string traceFile;
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (flag == "--trace-file") {
        args.traceFile = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

/// The seed of a run's k-th distinct day; day 0 is the run's own seed, so
/// seed 42's first day is E19's reference day.
std::uint64_t daySeed(std::uint64_t seed, std::size_t k) {
  return seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50);
}

/// Mean of the middle half (p25 to p75) of the values.
double midMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 4;
  const std::size_t hi = values.size() - values.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

/// Wall-clock metrics are scaled to a machine on which the gauge below
/// takes this long. The shared machines this runs on drift in speed by up to
/// a fifth over minutes; the gauge, timed right before each measured piece
/// of work, cancels most of that drift (see README.md).
constexpr double kGaugeReferenceS = 0.075;

/// Times two fixed loops that share no code with the program: how fast this
/// machine runs at the moment. One chases dependent loads through a 1 MiB
/// buffer (memory latency, like the simulator's event heap and peer
/// tables); the other chains 8-limb schoolbook multiplies (carry chains,
/// like the bignum kernels). Taken before every replayed day and set-up.
double gaugeSeconds() {
  static std::vector<std::uint64_t> buffer(std::size_t{1} << 17);  // 1 MiB
  const std::size_t mask = buffer.size() - 1;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t limbs[8] = {1, 2, 3, 4, 5, 6, 7, 0x9e3779b97f4a7c15ull};
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4'000'000; ++i) {
    x = x * 6364136223846793005ull + buffer[(x >> 29) & mask];
    buffer[(x >> 41) & mask] ^= x;
  }
  for (int round = 0; round < 300'000; ++round) {
    std::uint64_t product[16] = {};
    for (int i = 0; i < 8; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 8; ++j) {
        carry += static_cast<unsigned __int128>(limbs[i]) * limbs[j] +
                 product[i + j];
        product[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      product[i + 8] = static_cast<std::uint64_t>(carry);
    }
    for (int i = 0; i < 8; ++i) limbs[i] = product[i + 4] | 1;
  }
  // Keep both loops' results live.
  asm volatile("" : : "r"(x), "r"(limbs[0]), "r"(limbs[7]) : "memory");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Self-test of the oracle: each check must reject a known-wrong
/// expectation built from a read it accepted. Returns the failures.
std::vector<std::string> selfTest(const DayResult& day) {
  std::vector<std::string> failures;
  const auto& expected = day.sampleExpected;
  const auto& read = day.sampleRead;
  if (expected.size() < 2) {
    failures.push_back("no verified member read with two posts to test on");
    return failures;
  }
  if (!checkRead(expected, true, read, true).empty()) {
    failures.push_back("the checks reject a correct read");
  }
  std::vector<std::string> swapped = expected;
  std::swap(swapped[0], swapped[1]);
  if (checkRead(swapped, true, read, false).empty()) {
    failures.push_back("two swapped texts were not caught");
  }
  if (checkRead(expected, /*member=*/false, read, false).empty()) {
    failures.push_back("a member wrongly marked revoked was not caught");
  }
  std::vector<std::string> longer = expected;
  longer.push_back("an unread post");
  if (checkRead(longer, true, read, /*final=*/true).empty()) {
    failures.push_back("an audit read missing a post was not caught");
  }
  return failures;
}

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : workloads()) {
    if (candidate.name == args.workload) spec = &candidate;
  }
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::size_t distinct = spec->distinctDays;
  const auto runStart = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         runStart)
        .count();
  };

  // Rounds: every replayed day measured with tracing off. In a traced run
  // each of them is followed by the same day traced.
  std::vector<DayResult> rounds;
  std::vector<DayResult> tracedRounds;
  std::vector<double> gauges;
  while (rounds.size() < distinct || elapsed() < args.seconds) {
    const std::size_t k = rounds.size() % distinct;
    gauges.push_back(gaugeSeconds());
    rounds.push_back(replayDay(*spec, daySeed(args.seed, k), false));
    if (args.trace) {
      tracer().setKeeping(tracedRounds.empty());
      tracedRounds.push_back(replayDay(*spec, daySeed(args.seed, k), true));
      tracer().setKeeping(false);
    }
  }
  std::vector<double> setups;
  for (const DayResult& r : rounds) setups.push_back(r.setupS);
  while (!args.trace && setups.size() < spec->setupSamples) {
    const std::size_t k = setups.size() % distinct;
    gauges.push_back(gaugeSeconds());
    setups.push_back(
        replayDay(*spec, daySeed(args.seed, k), false, /*setupOnly=*/true)
            .setupS);
  }
  // Multiplies a wall time into reference-machine time, by the gauge taken
  // just before it: gauges[i] precedes setups[i] and, below rounds.size(),
  // the day of rounds[i].
  std::vector<double> toReference;
  for (const double g : gauges) toReference.push_back(kGaugeReferenceS / g);

  // Operation accounting over every round, by the phase that issued it.
  const std::vector<std::string>& phases = rounds.front().phaseNames;
  std::vector<OpCounts> byPhase(phases.size());
  std::vector<std::string> violations;
  std::uint64_t lostFetches = 0, storedNowhere = 0, outOfReach = 0;
  std::uint64_t auditReads = 0;
  std::map<Fault, std::uint64_t> auditShort;
  for (const auto* set : {&rounds, &tracedRounds}) {
    for (const DayResult& r : *set) {
      for (std::size_t p = 0; p < r.byPhase.size(); ++p) {
        for (std::size_t kind = 0; kind < kOpKinds; ++kind) {
          byPhase[p].attempted[kind] += r.byPhase[p].attempted[kind];
          byPhase[p].failed[kind] += r.byPhase[p].failed[kind];
          byPhase[p].known[kind] += r.byPhase[p].known[kind];
        }
      }
      violations.insert(violations.end(), r.violations.begin(),
                        r.violations.end());
      lostFetches += r.lostFetchAttempts;
      storedNowhere += r.timelinesStoredNowhere;
      outOfReach += r.timelinesOutOfReach;
      auditReads += r.auditReads;
      for (const AuditShortfall& gap : r.shortfalls) ++auditShort[gap.fault];
    }
  }
  std::uint64_t attempted = 0, failed = 0, known = 0;
  for (const OpCounts& counts : byPhase) {
    for (std::size_t kind = 0; kind < kOpKinds; ++kind) {
      attempted += counts.attempted[kind];
      failed += counts.failed[kind];
      known += counts.known[kind];
    }
  }
  std::uint64_t shortAudits = 0;
  for (const auto& [fault, n] : auditShort) shortAudits += n;
  const std::vector<std::string> selfTestFailures = selfTest(rounds.front());
  const bool correct = violations.empty() && selfTestFailures.empty();

  // Report.
  std::printf("perfbench %s, seed %llu: %zu rounds over %zu distinct days "
              "(%zu nodes, %zu scheduled events on day 0), %.1f s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              rounds.size() + tracedRounds.size(), distinct,
              rounds.front().nodes, rounds.front().events, elapsed());
  std::printf("day replay walls (s):");
  for (const DayResult& r : rounds) std::printf(" %.4f", r.dayWallS);
  std::printf("\ngauge loops (ms):");
  for (const double g : gauges) std::printf(" %.3f", g * 1000);
  std::printf("\nwall-clock metrics below are scaled by %.0f ms / the gauge "
              "taken before each day and set-up (median gauge %.2f ms)\n",
              kGaugeReferenceS * 1000, median(gauges) * 1000);
  std::printf("\noperations attempted/failed (of which a named fault "
              "explains), by the phase that issued them:\n");
  std::printf("  %-19s", "phase");
  for (std::size_t kind = 0; kind < kOpKinds; ++kind) {
    std::printf(" %20s", opKindName(kind));
  }
  std::printf("\n");
  for (std::size_t p = 0; p < phases.size(); ++p) {
    std::printf("  %-19s", phases[p].c_str());
    for (std::size_t kind = 0; kind < kOpKinds; ++kind) {
      char cell[64];
      std::snprintf(cell, sizeof cell, "%llu/%llu (%llu)",
                    static_cast<unsigned long long>(byPhase[p].attempted[kind]),
                    static_cast<unsigned long long>(byPhase[p].failed[kind]),
                    static_cast<unsigned long long>(byPhase[p].known[kind]));
      std::printf(" %20s", cell);
    }
    std::printf("\n");
  }
  std::printf("  %-19s %20llu/%llu\n", "post-day audit read",
              static_cast<unsigned long long>(auditReads),
              static_cast<unsigned long long>(shortAudits));
  std::printf("\nfetch attempts that failed verification and were retried "
              "(whole-timeline re-read): %llu\n"
              "fetches that failed for good: %llu, all explained by a timeline "
              "block %s (%llu timelines) or %s (%llu timelines)\n"
              "short audit reads: %llu %s, %llu %s, %llu %s\n",
              static_cast<unsigned long long>(lostFetches),
              static_cast<unsigned long long>(known),
              faultName(Fault::kStoredNowhere),
              static_cast<unsigned long long>(storedNowhere),
              faultName(Fault::kOutOfReach),
              static_cast<unsigned long long>(outOfReach),
              static_cast<unsigned long long>(auditShort[Fault::kFirstCopyWins]),
              faultName(Fault::kFirstCopyWins),
              static_cast<unsigned long long>(auditShort[Fault::kStoredNowhere]),
              faultName(Fault::kStoredNowhere),
              static_cast<unsigned long long>(auditShort[Fault::kOutOfReach]),
              faultName(Fault::kOutOfReach));
  for (std::size_t k = 0; k < std::min(distinct, rounds.size()); ++k) {
    for (const AuditShortfall& gap : rounds[k].shortfalls) {
      std::printf("  day %zu audit %s: read %zu of %zu posts%s, freshest stored "
                  "head covers %zu: %s\n",
                  k, gap.author.c_str(), gap.read, gap.published,
                  gap.verified ? "" : " (did not verify)", gap.freshestCopy,
                  faultName(gap.fault));
    }
  }
  // The failures the named faults explain strike on some seeds only, so the
  // result line leaves them out of `attempted` and `failed`; compare.py reads
  // them from this line.
  std::printf("known faults: {\"attempted\": %llu, \"failed_fetches\": %llu, "
              "\"lost_fetch_attempts\": %llu, \"audit_reads\": %llu, "
              "\"short_audit_reads\": %llu}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(known),
              static_cast<unsigned long long>(lostFetches),
              static_cast<unsigned long long>(auditReads),
              static_cast<unsigned long long>(shortAudits));
  std::printf("self-test of the checks: %s\n",
              selfTestFailures.empty() ? "each wrong expectation was rejected"
                                       : "FAILED");
  for (const std::string& f : selfTestFailures) std::printf("  %s\n", f.c_str());
  for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
    std::printf("  violation: %s\n", violations[i].c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Sim-clock figures pool the distinct days (each deterministic).
    std::vector<double> fetchMs, visibilityMs;
    std::uint64_t msgs = 0, ops = 0;
    double wallSum = 0, rawWallSum = 0;
    for (std::size_t k = 0; k < distinct; ++k) {
      const DayResult& day = rounds[k];
      fetchMs.insert(fetchMs.end(), day.fetchMs.begin(), day.fetchMs.end());
      visibilityMs.insert(visibilityMs.end(), day.visibilityMs.begin(),
                          day.visibilityMs.end());
      msgs += day.dosnMsgs;
      ops += day.opsCompleted;
      std::vector<double> walls, rawWalls;
      for (std::size_t i = k; i < rounds.size(); i += distinct) {
        walls.push_back(rounds[i].dayWallS * toReference[i]);
        rawWalls.push_back(rounds[i].dayWallS);
      }
      wallSum += median(walls);
      rawWallSum += median(rawWalls);
    }
    double revokeMs = 0, rawRevokeMs = 0;
    std::uint64_t revokeEnvelopes = 0, revocations = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const DayResult& r = rounds[i];
      revokeMs += r.revokeWallMs * toReference[i];
      rawRevokeMs += r.revokeWallMs;
      revokeEnvelopes += r.revokeEnvelopes;
      for (const OpCounts& counts : r.byPhase) revocations += counts.attempted[kRevoke];
    }
    std::vector<double> scaledSetups;
    for (std::size_t i = 0; i < setups.size(); ++i) {
      scaledSetups.push_back(setups[i] * toReference[i]);
    }
    metrics = {
        {"setup_s", median(scaledSetups), "s"},
        {"ops_per_s", static_cast<double>(ops) / wallSum, "ops/s"},
        {"fetch_mid_ms", midMean(fetchMs), "ms"},
        {"fetch_p95_ms", percentile(fetchMs, 95), "ms"},
        {"visibility_p50_ms", percentile(visibilityMs, 50), "ms"},
        {"revoke_ms_per_envelope",
         revokeMs / static_cast<double>(revokeEnvelopes), "ms"},
        {"msgs_per_op", static_cast<double>(msgs) / static_cast<double>(ops),
         "msg/op"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::printf("\nunscaled: setup_s %.6f, ops_per_s %.3f, "
                "revoke_ms_per_envelope %.6f\n",
                median(setups), static_cast<double>(ops) / rawWallSum,
                rawRevokeMs / static_cast<double>(revokeEnvelopes));
    std::printf("samples: %zu set-ups, %zu fetches, %zu visible posts, "
                "%llu revocations re-encrypting %llu envelopes, %llu "
                "operations over %zu distinct days\n",
                setups.size(), fetchMs.size(), visibilityMs.size(),
                static_cast<unsigned long long>(revocations),
                static_cast<unsigned long long>(revokeEnvelopes),
                static_cast<unsigned long long>(ops), distinct);
  } else {
    const Tracer& t = tracer();
    const double days = static_cast<double>(tracedRounds.size());
    const auto perDay = [days](double v) { return v / days; };
    const auto secs = [&](Span s) {
      return perDay(static_cast<double>(t.dayTotals(s).totalNs) / 1e9);
    };
    const auto calls = [&](Span s) {
      return perDay(static_cast<double>(t.dayTotals(s).calls));
    };
    LayerCounts sum;
    std::uint64_t verifiedFetches = 0, reencrypted = 0;
    double tracedWall = 0, untracedWall = 0, tracedOps = 0, untracedOps = 0;
    for (std::size_t i = 0; i < tracedRounds.size(); ++i) {
      const DayResult& traced = tracedRounds[i];
      sum += traced.layers;
      verifiedFetches += traced.fetchMs.size();
      reencrypted += traced.revokeEnvelopes;
      tracedWall += traced.dayWallS;
      tracedOps += static_cast<double>(traced.opsCompleted);
      untracedWall += rounds[i].dayWallS;
      untracedOps += static_cast<double>(rounds[i].opsCompleted);
    }
    const auto count = [&](std::uint64_t v) {
      return perDay(static_cast<double>(v));
    };
    // Self time by layer and phase (seconds per replayed day).
    const std::vector<std::string> layerNames = {
        "sim", "overlay", "store", "app", "privacy",
        "integrity", "ibbe", "pkcrypto", "workload"};
    std::map<std::string, std::vector<double>> selfByPhase;
    for (const std::string& layer : layerNames) {
      selfByPhase[layer].assign(kPhaseSlots, 0.0);
    }
    for (std::size_t s = 0; s < kSpanKinds; ++s) {
      const Span span = static_cast<Span>(s);
      for (std::size_t p = 0; p < kPhaseSlots; ++p) {
        selfByPhase[spanLayer(span)][p] +=
            perDay(static_cast<double>(t.totals(span, p).selfNs) / 1e9);
      }
    }
    std::printf("\nself time by layer and phase, s per replayed day "
                "(sim = event dispatch plus program code no span covers):\n");
    std::printf("  %-10s", "layer");
    for (const std::string& phase : phases) std::printf(" %9.9s", phase.c_str());
    std::printf(" %9s %9s\n", "setup", "audit");
    for (const std::string& layer : layerNames) {
      std::printf("  %-10s", layer.c_str());
      for (std::size_t p = 0; p < phases.size(); ++p) {
        std::printf(" %9.4f", selfByPhase[layer][p]);
      }
      std::printf(" %9.4f %9.4f\n", selfByPhase[layer][kSetupPhase],
                  selfByPhase[layer][kAuditPhase]);
    }
    const auto daySelf = [&](const std::string& layer) {
      double total = 0;
      for (std::size_t p = 0; p < phases.size(); ++p) {
        total += selfByPhase[layer][p];
      }
      return total;
    };
    const double tracedRate = tracedOps / tracedWall;
    const double untracedRate = untracedOps / untracedWall;
    const double decrypts = calls(Span::kAclDecrypt);
    const double envelopes = count(sum.aclReaderEnvelopes);
    metrics = {
        {"sim.loop_s", secs(Span::kSimLoop), "s"},
        {"sim.events", count(sum.simEvents), "count"},
        {"sim.status_changes", count(sum.statusChanges), "count"},
        {"net.msgs", count(sum.netMsgs), "count"},
        {"net.bytes", count(sum.netBytes), "B"},
        {"net.dropped", count(sum.netDropped), "count"},
        {"rpc.sent", count(sum.rpcSent), "count"},
        {"rpc.retries", count(sum.rpcRetries), "count"},
        {"rpc.timeouts", count(sum.rpcTimeouts), "count"},
        {"rpc.failed", count(sum.rpcFailed), "count"},
        {"overlay.lookups", count(sum.lookups), "count"},
        {"overlay.hops", count(sum.hops), "count"},
        {"overlay.place_calls", calls(Span::kOverlayPlace), "count"},
        {"overlay.place_s", secs(Span::kOverlayPlace), "s"},
        {"store.puts", calls(Span::kStorePut), "count"},
        {"store.gets", calls(Span::kStoreGet), "count"},
        {"store.put_s", secs(Span::kStorePut), "s"},
        {"store.get_s", secs(Span::kStoreGet), "s"},
        {"store.cache_hits", count(sum.cacheHits), "count"},
        {"store.cache_misses", count(sum.cacheMisses), "count"},
        {"store.cache_invalidations", count(sum.cacheInvalidations), "count"},
        {"app.publish_s", secs(Span::kAppPublish), "s"},
        {"app.entries_per_fetch",
         verifiedFetches ? static_cast<double>(sum.verifiedEntries) /
                               static_cast<double>(verifiedFetches)
                         : 0.0,
         "entries"},
        {"app.reread_share",
         sum.verifiedEntries ? static_cast<double>(sum.rereadEntries) /
                                   static_cast<double>(sum.verifiedEntries)
                             : 0.0,
         "ratio"},
        {"acl.encrypts", calls(Span::kAclEncrypt), "count"},
        {"acl.encrypt_s", secs(Span::kAclEncrypt), "s"},
        {"acl.decrypts", decrypts, "count"},
        {"acl.decrypt_s", secs(Span::kAclDecrypt), "s"},
        {"acl.decrypts_per_envelope", envelopes > 0 ? decrypts / envelopes : 0.0,
         "ratio"},
        {"acl.revoke_s", secs(Span::kAclRevoke), "s"},
        {"acl.reencrypted", count(reencrypted), "count"},
        {"integrity.verify_chain_calls", calls(Span::kVerifyChain), "count"},
        {"integrity.verify_chain_s", secs(Span::kVerifyChain), "s"},
        {"ibbe.extract_calls", calls(Span::kIbbeExtract), "count"},
        {"ibbe.decrypt_s", secs(Span::kIbbeDecrypt), "s"},
        {"ibbe.encrypt_s", secs(Span::kIbbeEncrypt), "s"},
        {"pkcrypto.sign_calls", calls(Span::kSchnorrSign), "count"},
        {"pkcrypto.verify_s", secs(Span::kSchnorrVerify), "s"},
        {"workload.generate_s",
         perDay(static_cast<double>(
                    t.totals(Span::kWorkloadGenerate, kSetupPhase).totalNs) /
                1e9),
         "s"},
    };
    for (const std::string& layer : layerNames) {
      if (layer == "workload") continue;
      metrics.push_back({"self." + layer + "_s", daySelf(layer), "s"});
    }
    std::uint64_t tracedLost = 0, tracedFailed = 0;
    for (const DayResult& r : tracedRounds) {
      tracedLost += r.lostFetchAttempts;
      for (const OpCounts& counts : r.byPhase) tracedFailed += counts.known[kFetch];
    }
    metrics.push_back(
        {"faults.lost_fetch_attempts", count(tracedLost), "count"});
    metrics.push_back(
        {"faults.failed_fetches", count(tracedFailed), "count"});
    metrics.push_back({"trace.ops_per_s", tracedRate, "ops/s"});
    metrics.push_back(
        {"trace.overhead", (untracedRate - tracedRate) / untracedRate, "ratio"});
    metrics.push_back({"trace.spans", count(t.recorded()), "count"});
    if (!args.traceFile.empty() && !t.writeTrace(args.traceFile, phases)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   args.traceFile.c_str());
    }
  }

  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("\n");
  printJson(correct, attempted - known, failed - known, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
