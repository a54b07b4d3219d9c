// One replayed day: a src/dosn/workload/ schedule applied to the full stack
// (Kademlia with social placement, friend caches, hybrid-IBBE circles,
// hash-chained Schnorr-signed timelines, churn and fault storms), with the
// benchmark's own oracle checking every verified read and a post-day audit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dosn/app/microblog.hpp"

namespace perfbench {

/// How a workload sizes and shapes its day.
struct WorkloadSpec {
  std::string name;
  std::size_t users = 20;
  std::size_t substrate = 48;  // full Kademlia replica hosts
  std::size_t ambient = 0;     // plain sim nodes sharing the event loop
  double postFactor = 1.0;     // scales the peak post rate
  double fetchFactor = 1.0;    // scales the peak fetch rate
  std::size_t revocationFactor = 1;  // scales each phase's revocations
  /// Distinct days (seeds) a run replays before it repeats one. The
  /// sim-clock metrics pool exactly these days, so they do not depend on
  /// how many rounds fit in the run.
  std::size_t distinctDays = 3;
  /// Set-ups a run measures at least (extra set-ups run alone at the end).
  std::size_t setupSamples = 15;
};

const std::vector<WorkloadSpec>& workloads();

/// The operations a day issues. The post-day audit is reported apart: it
/// is a check, not part of the workload.
enum OpKind : std::size_t { kPost, kFetch, kRevoke, kOpKinds };
const char* opKindName(std::size_t kind);

/// Counts by operation kind. `failed` includes `known`: the failures that
/// one of the named program faults (see README.md) explains, as the replay
/// showed from the stores. Every other failure is also a violation.
struct OpCounts {
  std::array<std::uint64_t, kOpKinds> attempted{};
  std::array<std::uint64_t, kOpKinds> failed{};
  std::array<std::uint64_t, kOpKinds> known{};
};

/// Per-layer counters of one day; the traced run reports them.
struct LayerCounts {
  std::uint64_t simEvents = 0, statusChanges = 0;
  std::uint64_t netMsgs = 0, netBytes = 0, netDropped = 0;
  std::uint64_t rpcSent = 0, rpcRetries = 0, rpcTimeouts = 0, rpcFailed = 0;
  std::uint64_t lookups = 0, hops = 0;
  std::uint64_t cacheHits = 0, cacheMisses = 0, cacheInvalidations = 0;
  std::uint64_t verifiedEntries = 0, rereadEntries = 0;
  std::uint64_t aclReaderEnvelopes = 0;

  LayerCounts& operator+=(const LayerCounts& o);
};

/// The named fault that explains a failed fetch or a short audit read.
enum class Fault {
  kFirstCopyWins,  // a stale head copy answered while a fresh one is reachable
  kStoredNowhere,  // a head update or entry that no node holds
  kOutOfReach,     // held by some node, but a lookup of its key misses it
};
const char* faultName(Fault fault);

/// An audit read that came back short, and the fault that explains it.
struct AuditShortfall {
  std::string author;
  std::size_t published = 0;   // posts the benchmark published, warm-up included
  std::size_t read = 0;        // posts the audit read got
  std::size_t freshestCopy = 0;  // longest head any node still stores
  bool verified = false;
  Fault fault = Fault::kFirstCopyWins;
};

struct DayResult {
  std::vector<std::string> phaseNames;
  double setupS = 0;
  double dayWallS = 0;
  std::uint64_t opsCompleted = 0;  // posts done + verified fetches + revokes
  std::uint64_t dosnMsgs = 0;      // sent during the day, ambient pings excluded
  std::vector<double> fetchMs;       // sim clock, call -> verified result
  std::vector<double> visibilityMs;  // sim clock, publish -> first covering read
  double revokeWallMs = 0;           // summed over the day's revocations
  std::uint64_t revokeEnvelopes = 0;  // history envelopes they re-encrypted
  std::vector<OpCounts> byPhase;     // by the phase that issued the operation
  /// Checks the oracle failed: what, where, and the first difference.
  std::vector<std::string> violations;
  std::vector<AuditShortfall> shortfalls;
  /// Fetch attempts that failed verification and were retried: one lost
  /// lookup fails the whole-timeline re-read.
  std::uint64_t lostFetchAttempts = 0;
  /// Timelines a fetch gave up on, by the fault that explains it.
  std::uint64_t timelinesStoredNowhere = 0, timelinesOutOfReach = 0;
  std::size_t auditReads = 0;
  std::size_t events = 0;
  std::size_t nodes = 0;
  LayerCounts layers;
  /// One verified member fetch with at least two posts, kept for the
  /// self-test of the checks (author's published texts and what was read).
  std::vector<std::string> sampleExpected;
  dosn::app::FetchedTimeline sampleRead;
};

/// Replays the day generated from `daySeed`. With `setupOnly` it returns
/// right after set-up (only setupS and phaseNames are filled).
DayResult replayDay(const WorkloadSpec& spec, std::uint64_t daySeed,
                    bool traced, bool setupOnly = false);

/// The oracle's check of one verified fetch: the posts a reader decrypted
/// must be the author's published texts, in order, for the length the
/// verified chain covers; a current member decrypts every entry and a
/// revoked reader none. `final` also demands the whole published timeline.
/// Returns an empty string when the read passes.
std::string checkRead(const std::vector<std::string>& published, bool member,
                      const dosn::app::FetchedTimeline& read, bool final);

}  // namespace perfbench
