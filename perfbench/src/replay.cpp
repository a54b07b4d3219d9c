#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "dosn/overlay/placement.hpp"
#include "dosn/privacy/hybrid_acl.hpp"
#include "dosn/sim/churn.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/social/graph_gen.hpp"
#include "dosn/store/memory_store.hpp"
#include "dosn/workload/generator.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace dosn;
using app::FetchedTimeline;
using app::MicroblogNode;
using sim::kMillisecond;
using sim::kSecond;
using workload::EventKind;
using workload::WorkloadEvent;

namespace {

const sim::MessageType kAmbientPing("perfbench.ambient");

// One workload hour lasts 72 sim-seconds, as in E19.
constexpr double kHourScale = 0.02;

// How old an entry must be before its absence from every node counts as a
// loss rather than a store still in flight.
constexpr sim::SimTime kSettle = 30 * kSecond;

// A reader retries a fetch that failed verification after a pause that
// doubles from 0.5 s up to 16 s; kFetchAttempts take over seven sim-minutes,
// longer than the fault storm plus the healed phase after it.
constexpr int kFetchAttempts = 30;
sim::SimTime fetchRetryPause(int attempt) {
  return (500 * kMillisecond) << std::min(attempt, 5);
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    // E19's canonical full-mode day.
    out.push_back(WorkloadSpec{.name = "day", .distinctDays = 10});
    // E19's 100k rung: the same kind of day inside 100,096 simulated nodes.
    out.push_back(WorkloadSpec{.name = "day-100k",
                               .users = 16,
                               .substrate = 128,
                               .ambient = 100096 - 16 - 128,
                               .postFactor = 0.6,
                               .fetchFactor = 0.6,
                               .distinctDays = 8,
                               .setupSamples = 9});
    // Publish- and revoke-bound: more posts, fewer reads, more revocations.
    out.push_back(WorkloadSpec{.name = "write-heavy",
                               .postFactor = 2.0,
                               .fetchFactor = 0.25,
                               .revocationFactor = 2,
                               .distinctDays = 14});
    return out;
  }();
  return specs;
}

const char* faultName(Fault fault) {
  switch (fault) {
    case Fault::kFirstCopyWins: return "first copy wins";
    case Fault::kStoredNowhere: return "stored on no node";
    case Fault::kOutOfReach: return "held, but lookups miss it";
  }
  return "?";
}

const char* opKindName(std::size_t kind) {
  switch (kind) {
    case kPost: return "post";
    case kFetch: return "fetch";
    case kRevoke: return "revoke";
  }
  return "?";
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  simEvents += o.simEvents;
  statusChanges += o.statusChanges;
  netMsgs += o.netMsgs;
  netBytes += o.netBytes;
  netDropped += o.netDropped;
  rpcSent += o.rpcSent;
  rpcRetries += o.rpcRetries;
  rpcTimeouts += o.rpcTimeouts;
  rpcFailed += o.rpcFailed;
  lookups += o.lookups;
  hops += o.hops;
  cacheHits += o.cacheHits;
  cacheMisses += o.cacheMisses;
  cacheInvalidations += o.cacheInvalidations;
  verifiedEntries += o.verifiedEntries;
  rereadEntries += o.rereadEntries;
  aclReaderEnvelopes += o.aclReaderEnvelopes;
  return *this;
}

std::string checkRead(const std::vector<std::string>& published, bool member,
                      const FetchedTimeline& read, bool final) {
  const std::size_t covered = read.posts.size() + read.undecryptable;
  if (covered > published.size()) {
    return "covers " + std::to_string(covered) + " entries but " +
           std::to_string(published.size()) + " were published";
  }
  if (final && covered != published.size()) {
    return "covers " + std::to_string(covered) + " of " +
           std::to_string(published.size()) + " published entries";
  }
  if (!member) {
    if (!read.posts.empty()) {
      return "a revoked reader decrypted " + std::to_string(read.posts.size()) +
             " entries";
    }
    return {};
  }
  if (read.undecryptable != 0) {
    return "a member could not decrypt " +
           std::to_string(read.undecryptable) + " entries";
  }
  for (std::size_t i = 0; i < read.posts.size(); ++i) {
    if (read.posts[i].text != published[i]) {
      return "entry " + std::to_string(i) + " reads '" + read.posts[i].text +
             "', published '" + published[i] + "'";
    }
  }
  return {};
}

DayResult replayDay(const WorkloadSpec& spec, std::uint64_t daySeed,
                    bool traced, bool setupOnly) {
  Tracer& trace = tracer();
  trace.setEnabled(traced);
  trace.setPhase(kSetupPhase);
  DayResult out;
  LayerCounts& layers = out.layers;
  const auto setupStart = std::chrono::steady_clock::now();

  workload::WorkloadConfig config =
      workload::WorkloadConfig::dayInLife(spec.users);
  // Compress the day onto the sim clock without changing the expected event
  // counts: durations shrink by kHourScale, rates grow by 1/kHourScale.
  for (auto& phase : config.phases) {
    phase.duration = static_cast<sim::SimTime>(
        static_cast<double>(phase.duration) * kHourScale);
    phase.revocations *= spec.revocationFactor;
  }
  config.peakPostsPerUserHour *= spec.postFactor / kHourScale;
  config.peakFetchesPerUserHour *= spec.fetchFactor / kHourScale;
  if (config.phases.size() > kMaxPhases) {
    throw util::DosnError("perfbench: too many phases for the trace table");
  }
  for (const auto& phase : config.phases) out.phaseNames.push_back(phase.name);

  const workload::WorkloadGenerator gen = [&] {
    const Scope span(Span::kWorkloadGenerate);
    return workload::WorkloadGenerator(config, daySeed);
  }();
  const auto& events = gen.events();

  util::Rng rng(daySeed);
  sim::Metrics metrics;
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  net.setMetrics(&metrics);
  std::uint64_t simEvents = 0;
  const auto runUntil = [&](sim::SimTime until) {
    const Scope span(Span::kSimLoop);
    simEvents += simulator.runUntil(until);
  };
  const auto runAll = [&] {
    const Scope span(Span::kSimLoop);
    simEvents += simulator.run();
  };

  const auto& group = pkcrypto::DlogGroup::cached(256);
  social::IdentityRegistry registry;
  privacy::HybridAcl hybrid(group, rng, privacy::WrapScheme::kIbbe);
  ReaderEnvelopes decrypted;
  TracedAcl tracedAcl(hybrid, decrypted);
  privacy::AccessController& acl =
      traced ? static_cast<privacy::AccessController&>(tracedAcl) : hybrid;

  overlay::SocialPolicyConfig policyConfig;
  policyConfig.graph = &gen.graph();
  overlay::SocialPolicy policy(net, policyConfig);
  TracedPlacement tracedPolicy(policy);

  overlay::KademliaConfig dhtConfig;
  dhtConfig.k = 8;
  dhtConfig.storeWidth = 4;
  dhtConfig.rpcTimeout = 300 * kMillisecond;
  dhtConfig.adaptiveTimeout = true;
  dhtConfig.retry = overlay::RetryPolicy{2, 150 * kMillisecond, 2.0};
  dhtConfig.placement = traced
                            ? static_cast<overlay::PlacementPolicy*>(&tracedPolicy)
                            : &policy;
  if (traced) {
    dhtConfig.makeStore = [] {
      return std::make_unique<TracedStore>(
          std::make_unique<store::MemoryStore>());
    };
  }

  app::FriendCacheConfig cache;
  cache.enabled = true;

  std::vector<std::unique_ptr<overlay::KademliaNode>> substrate;
  substrate.reserve(spec.substrate);
  for (std::size_t i = 0; i < spec.substrate; ++i) {
    substrate.push_back(std::make_unique<overlay::KademliaNode>(
        net, overlay::OverlayId::random(rng), dhtConfig));
  }
  const overlay::Contact seed{substrate[0]->id(), substrate[0]->addr()};
  for (std::size_t i = 1; i < spec.substrate; ++i) {
    substrate[i]->bootstrap(seed);
    runAll();
  }
  std::vector<std::unique_ptr<MicroblogNode>> users;
  users.reserve(spec.users);
  for (std::size_t i = 0; i < spec.users; ++i) {
    users.push_back(std::make_unique<MicroblogNode>(
        net, overlay::OverlayId::random(rng), group, social::syntheticUser(i),
        registry, acl, rng, dhtConfig, cache));
    users.back()->join(seed);
    runAll();
  }
  std::vector<sim::NodeAddr> userAddr(spec.users);
  for (std::size_t i = 0; i < spec.users; ++i) {
    userAddr[i] = users[i]->dht().addr();
    policy.bind(userAddr[i], social::syntheticUser(i));
    policy.bindId(userAddr[i], users[i]->dht().id());
  }
  for (std::uint32_t u = 0; u < spec.users; ++u) {
    users[u]->createCircle("wall");
    for (const std::uint32_t f : gen.circleOf(u)) {
      users[u]->addToCircle("wall", social::syntheticUser(f));
      users[u]->addFriendPeer(social::syntheticUser(f), userAddr[f]);
    }
  }

  std::vector<sim::NodeAddr> ambient;
  ambient.reserve(spec.ambient);
  for (std::size_t i = 0; i < spec.ambient; ++i) ambient.push_back(net.addNode());
  out.nodes = spec.substrate + spec.users + spec.ambient;

  // The oracle: what the benchmark published, by author and in order, and
  // who it revoked from each circle — replayed from the schedule, never
  // read back from the ACL.
  std::vector<std::vector<std::string>> published(spec.users);
  std::vector<std::vector<sim::SimTime>> pubAt(spec.users);
  std::vector<std::vector<bool>> seen(spec.users);
  std::vector<std::set<std::uint32_t>> revoked(spec.users);
  const auto isMember = [&](std::uint32_t author, std::uint32_t reader) {
    if (reader == author) return true;
    const auto& circle = gen.circleOf(author);
    return std::binary_search(circle.begin(), circle.end(), reader) &&
           !revoked[author].count(reader);
  };

  // One warm-up post per user so every wall exists before the day opens;
  // warm-up posts are born visible so they stay out of the latency figures.
  std::size_t warmupOk = 0;
  for (std::uint32_t u = 0; u < spec.users; ++u) {
    published[u].push_back(social::syntheticUser(u) + "/p0");
    pubAt[u].push_back(0);
    seen[u].push_back(true);
    users[u]->publish("wall", published[u].back(), 0, rng,
                      [&warmupOk](bool ok) { warmupOk += ok ? 1 : 0; });
    runAll();
  }
  if (warmupOk != spec.users) {
    throw util::DosnError("perfbench: a warm-up publish did not complete");
  }
  out.setupS = secondsSince(setupStart);
  if (setupOnly) return out;

  const sim::SimTime t0 = simulator.now();
  const auto phaseOfNow = [&]() {
    return workload::phaseIndexAt(
        config, simulator.now() > t0 ? simulator.now() - t0 : 0);
  };
  out.byPhase.resize(config.phases.size());

  sim::FaultPlan plan;
  {
    sim::SimTime start = t0;
    for (const auto& phase : config.phases) {
      if (phase.dropProbability > 0) {
        plan.between(start, start + phase.duration,
                     sim::FaultRule::global().drop(phase.dropProbability));
      }
      start += phase.duration;
    }
  }
  net.setFaultPlan(&plan);
  if (traced) {
    net.addStatusObserver(
        [&layers](sim::NodeAddr, bool) { ++layers.statusChanges; });
  }

  std::vector<sim::NodeAddr> churnable;
  for (const auto& host : substrate) churnable.push_back(host->addr());
  for (const sim::NodeAddr addr : ambient) churnable.push_back(addr);

  // Day-start snapshots for the traced counters.
  const auto rpcSums = [&metrics] {
    std::array<std::uint64_t, 4> sums{};
    static const std::array<std::string, 4> kSuffix = {".sent", ".retries",
                                                       ".timeouts", ".failed"};
    for (const auto& [name, value] : metrics.countersWithPrefix("rpc.")) {
      for (std::size_t i = 0; i < kSuffix.size(); ++i) {
        if (name.size() > kSuffix[i].size() &&
            name.compare(name.size() - kSuffix[i].size(), kSuffix[i].size(),
                         kSuffix[i]) == 0) {
          sums[i] += value;
        }
      }
    }
    return sums;
  };
  const auto fetchSums = [&users] {
    app::FetchStats sum;
    for (const auto& user : users) {
      const app::FetchStats& s = user->fetchStats();
      sum.lookups += s.lookups;
      sum.hops += s.hops;
      sum.cacheLocalHits += s.cacheLocalHits;
      sum.cacheRemoteHits += s.cacheRemoteHits;
      sum.cacheMisses += s.cacheMisses;
      sum.cacheInvalidations += s.cacheInvalidations;
    }
    return sum;
  };
  simEvents = 0;
  const auto rpcBefore = rpcSums();
  const app::FetchStats fetchBefore = fetchSums();
  const std::uint64_t sentBefore = net.messagesSent();
  const std::uint64_t bytesBefore = net.bytesSent();
  const std::uint64_t droppedBefore = net.messagesDropped();
  const std::uint64_t ambientBefore = net.sentOfType(kAmbientPing);

  // Per reader: the longest verified prefix already read of each author.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> readBefore;
  std::size_t pending = 0;

  const auto onVerified = [&](std::uint32_t reader, std::uint32_t author,
                              sim::SimTime issuedAt, const FetchedTimeline& t) {
    ++out.opsCompleted;
    out.fetchMs.push_back(static_cast<double>(simulator.now() - issuedAt) /
                          kMillisecond);
    const bool member = isMember(author, reader);
    const std::string error =
        checkRead(published[author], member, t, /*final=*/false);
    if (!error.empty()) {
      out.violations.push_back("fetch of " + social::syntheticUser(author) +
                               " by " + social::syntheticUser(reader) + ": " +
                               error);
    }
    if (member && t.posts.size() >= 2 && out.sampleExpected.empty()) {
      out.sampleExpected.assign(
          published[author].begin(),
          published[author].begin() +
              static_cast<std::ptrdiff_t>(t.posts.size()));
      out.sampleRead = t;
    }
    const std::size_t len = t.posts.size() + t.undecryptable;
    std::size_t& before = readBefore[{reader, author}];
    layers.verifiedEntries += len;
    layers.rereadEntries += std::min(before, len);
    before = std::max(before, len);
    // Everything the verified chain covers is now provably visible at this
    // follower; the first sighting records publish -> visible.
    for (std::size_t seq = 0; seq < len && seq < seen[author].size(); ++seq) {
      if (seen[author][seq]) continue;
      seen[author][seq] = true;
      out.visibilityMs.push_back(
          static_cast<double>(simulator.now() - pubAt[author][seq]) /
          kMillisecond);
    }
  };
  // Every DHT node, and the replicas a lookup of `key` converges to on the
  // network as it is now: the k XOR-closest online nodes.
  std::vector<overlay::KademliaNode*> dhtNodes;
  for (const auto& host : substrate) dhtNodes.push_back(host.get());
  for (const auto& user : users) dhtNodes.push_back(&user->dht());
  const auto reachedBy = [&](const overlay::OverlayId& key) {
    std::vector<overlay::KademliaNode*> online;
    for (overlay::KademliaNode* node : dhtNodes) {
      if (net.isOnline(node->addr())) online.push_back(node);
    }
    const std::size_t k = std::min(dhtConfig.k, online.size());
    std::partial_sort(online.begin(), online.begin() + static_cast<std::ptrdiff_t>(k),
                      online.end(), [&key](const auto* a, const auto* b) {
                        return overlay::closerTo(key, a->id(), b->id());
                      });
    online.resize(k);
    return online;
  };
  const auto heldAnywhere = [&](const overlay::OverlayId& key) {
    return std::any_of(dhtNodes.begin(), dhtNodes.end(),
                       [&key](const overlay::KademliaNode* node) {
                         return node->localStore().has(key);
                       }) ||
           std::any_of(users.begin(), users.end(), [&key](const auto& user) {
             const MicroblogNode& node = *user;
             return node.friendCache() && node.friendCache()->has(key);
           });
  };
  // The timeline blocks whose absence would fail a fetch: the head, and the
  // entries older than kSettle (younger ones may still be in flight).
  const auto settledKeys = [&](std::uint32_t author) {
    const social::UserId name = social::syntheticUser(author);
    std::vector<overlay::OverlayId> keys = {MicroblogNode::headKey(name)};
    for (std::size_t seq = 0; seq < published[author].size(); ++seq) {
      if (simulator.now() - pubAt[author][seq] < kSettle) break;
      keys.push_back(MicroblogNode::entryKey(name, seq));
    }
    return keys;
  };
  // A head update or entry that no node holds any more: publish reported it
  // done before any store was acknowledged, and nothing stores it again.
  const auto storedNowhere = [&](std::uint32_t author) {
    const auto keys = settledKeys(author);
    return std::any_of(keys.begin(), keys.end(),
                       [&](const auto& key) { return !heldAnywhere(key); });
  };
  // Looks up every settled block of the author's timeline from the reader,
  // as the fetch did, and reports whether a lookup missed a block some node
  // holds. Run only once a fetch has failed for good, to tell a lookup that
  // cannot reach the replicas from a failure no fault explains.
  const auto probe = [&](std::uint32_t reader, std::uint32_t author,
                         std::function<void(bool missed)> done) {
    const auto keys = settledKeys(author);
    auto left = std::make_shared<std::size_t>(keys.size());
    auto missed = std::make_shared<bool>(false);
    for (const overlay::OverlayId& key : keys) {
      users[reader]->dht().findValue(
          key, [left, missed, done](overlay::LookupResult r) {
            if (!r.value) *missed = true;
            if (--*left == 0) done(*missed);
          });
    }
  };
  // True once the network has been calm (no drop or churn) and the author
  // has published nothing for kSettle: a fetch failing then fails for good.
  const auto settledFor = [&](std::uint32_t author) {
    const sim::SimTime now = simulator.now();
    if (now - pubAt[author].back() < kSettle) return false;
    sim::SimTime calmFrom = t0;
    sim::SimTime start = t0;
    for (const auto& phase : config.phases) {
      const sim::SimTime end = start + phase.duration;
      if (start > now) break;
      if (phase.dropProbability > 0 || phase.offlineFraction > 0) {
        if (now < end) return false;
        calmFrom = end;
      }
      start = end;
    }
    return now - calmFrom >= kSettle;
  };
  // A reader whose fetch fails verification opens the wall again after a
  // pause, as a client would; the latency runs from the first call. A fetch
  // that still fails once the failure is persistent counts as failed for the
  // phase that issued it. A named fault must explain it, or it is a
  // violation.
  std::vector<std::optional<Fault>> lostTimeline(spec.users);
  std::function<void(std::uint32_t, std::uint32_t, std::size_t, sim::SimTime,
                     int)>
      fetch = [&](std::uint32_t reader, std::uint32_t author,
                  std::size_t issuePhase, sim::SimTime issuedAt, int attempt) {
        users[reader]->fetchTimeline(
            social::syntheticUser(author),
            [&, author, reader, issuePhase, issuedAt, attempt](FetchedTimeline t) {
              if (t.headValid && t.chainValid) {
                --pending;
                onVerified(reader, author, issuedAt, t);
                return;
              }
              ++out.lostFetchAttempts;
              const bool lost = storedNowhere(author);
              const bool persistent = lost ||
                                      (attempt >= 1 && settledFor(author)) ||
                                      attempt + 1 >= kFetchAttempts;
              if (!persistent) {
                simulator.schedule(
                    fetchRetryPause(attempt),
                    [&fetch, reader, author, issuePhase, issuedAt, attempt] {
                      fetch(reader, author, issuePhase, issuedAt, attempt + 1);
                    });
                return;
              }
              const auto settle = [&, reader, author, issuePhase,
                                   attempt](std::optional<Fault> fault) {
                --pending;
                ++out.byPhase[issuePhase].failed[kFetch];
                if (!fault) {
                  out.violations.push_back(
                      "fetch of " + social::syntheticUser(author) + " by " +
                      social::syntheticUser(reader) + " failed " +
                      std::to_string(attempt + 1) +
                      " times, yet lookups find every block");
                  return;
                }
                ++out.byPhase[issuePhase].known[kFetch];
                if (!lostTimeline[author]) {
                  lostTimeline[author] = fault;
                  ++(*fault == Fault::kStoredNowhere ? out.timelinesStoredNowhere
                                                     : out.timelinesOutOfReach);
                }
              };
              if (lost) {
                settle(Fault::kStoredNowhere);
                return;
              }
              probe(reader, author, [settle](bool missed) {
                settle(missed ? std::optional(Fault::kOutOfReach) : std::nullopt);
              });
            });
      };
  const auto applyFetch = [&](const WorkloadEvent& e) {
    const std::size_t issuePhase = phaseOfNow();
    ++out.byPhase[issuePhase].attempted[kFetch];
    ++pending;
    fetch(e.actor, e.target, issuePhase, simulator.now(), 0);
  };

  const auto applyEvent = [&](const WorkloadEvent& e) {
    const std::size_t phase = phaseOfNow();
    switch (e.kind) {
      case EventKind::kPost:
      case EventKind::kFlashPost: {
        ++out.byPhase[phase].attempted[kPost];
        auto& texts = published[e.actor];
        texts.push_back(social::syntheticUser(e.actor) + "/p" +
                        std::to_string(texts.size()));
        pubAt[e.actor].push_back(simulator.now());
        seen[e.actor].push_back(false);
        ++pending;
        const Scope span(Span::kAppPublish);
        users[e.actor]->publish(
            "wall", texts.back(),
            static_cast<social::Timestamp>(simulator.now() / kSecond), rng,
            [&, phase](bool ok) {
              --pending;
              if (ok) {
                ++out.opsCompleted;
              } else {
                ++out.byPhase[phase].failed[kPost];
              }
            });
        break;
      }
      case EventKind::kFetch:
      case EventKind::kFlashFetch:
        applyFetch(e);
        break;
      case EventKind::kRevoke: {
        ++out.byPhase[phase].attempted[kRevoke];
        revoked[e.actor].insert(e.target);
        const auto start = std::chrono::steady_clock::now();
        const privacy::RevocationReport report = acl.removeMember(
            users[e.actor]->circleId("wall"), social::syntheticUser(e.target));
        out.revokeWallMs += secondsSince(start) * 1000.0;
        out.revokeEnvelopes += report.reencryptedEnvelopes;
        ++out.opsCompleted;
        break;
      }
    }
  };

  // The day: phase by phase, replaying the schedule on the sim clock.
  const auto dayStart = std::chrono::steady_clock::now();

  util::Rng ambientRng(daySeed + 0xa3b1e47ull);
  std::size_t next = 0;
  sim::SimTime phaseStart = t0;
  for (std::size_t p = 0; p < config.phases.size(); ++p) {
    trace.setPhase(static_cast<std::uint8_t>(p));
    const auto& phase = config.phases[p];
    const sim::SimTime phaseEnd = phaseStart + phase.duration;
    std::unique_ptr<sim::ChurnProcess> churn;
    if (phase.offlineFraction > 0 && !churnable.empty()) {
      sim::ChurnConfig churnConfig;
      const double a = 1.0 - phase.offlineFraction;
      churnConfig.meanOnlineSeconds =
          static_cast<double>(phase.duration) / kSecond * a / 2;
      churnConfig.meanOfflineSeconds =
          static_cast<double>(phase.duration) / kSecond * (1 - a) / 2;
      churnConfig.initialOnlineFraction = a;
      churn = std::make_unique<sim::ChurnProcess>(net, churnConfig, churnable);
    }
    // Ambient background load follows the diurnal wave: two one-shot pings
    // per ambient node-hour of activity, spread over the phase.
    if (!ambient.empty()) {
      const auto pings = static_cast<std::size_t>(
          static_cast<double>(ambient.size()) * phase.activityLevel * 2.0);
      for (std::size_t i = 0; i < pings; ++i) {
        const sim::NodeAddr from = ambient[ambientRng.uniform(ambient.size())];
        const sim::NodeAddr to = ambient[ambientRng.uniform(ambient.size())];
        simulator.schedule(ambientRng.uniform(phase.duration), [&net, from, to] {
          net.send(from, to, sim::Message{kAmbientPing, {}});
        });
      }
    }
    while (next < events.size() && events[next].at + t0 < phaseEnd) {
      const sim::SimTime at = events[next].at + t0;
      if (at > simulator.now()) runUntil(at);
      applyEvent(events[next]);
      ++next;
    }
    runUntil(phaseEnd);
    if (churn) {
      churn->stop();
      for (const sim::NodeAddr addr : churnable) net.setOnline(addr, true);
    }
    phaseStart = phaseEnd;
  }
  // Post-day drain on a healed, fully online network, bounded so a lost
  // callback shows as a failed operation instead of a hang.
  for (int i = 0; i < 240 && pending > 0; ++i) {
    runUntil(simulator.now() + kSecond);
  }
  runAll();
  out.dayWallS = secondsSince(dayStart);

  out.events = next;
  if (next != events.size()) {
    throw util::DosnError("perfbench: the schedule was not fully applied");
  }
  // A callback that never fired is a fault of the program's own contract.
  if (pending > 0) {
    out.violations.push_back(std::to_string(pending) +
                             " operations never completed");
  }

  layers.simEvents = simEvents;
  out.dosnMsgs = (net.messagesSent() - sentBefore) -
                 (net.sentOfType(kAmbientPing) - ambientBefore);
  layers.netMsgs = net.messagesSent() - sentBefore;
  layers.netBytes = net.bytesSent() - bytesBefore;
  layers.netDropped = net.messagesDropped() - droppedBefore;
  const auto rpcAfter = rpcSums();
  layers.rpcSent = rpcAfter[0] - rpcBefore[0];
  layers.rpcRetries = rpcAfter[1] - rpcBefore[1];
  layers.rpcTimeouts = rpcAfter[2] - rpcBefore[2];
  layers.rpcFailed = rpcAfter[3] - rpcBefore[3];
  const app::FetchStats fetchAfter = fetchSums();
  layers.lookups = fetchAfter.lookups - fetchBefore.lookups;
  layers.hops = fetchAfter.hops - fetchBefore.hops;
  layers.cacheHits = (fetchAfter.cacheLocalHits + fetchAfter.cacheRemoteHits) -
                     (fetchBefore.cacheLocalHits + fetchBefore.cacheRemoteHits);
  layers.cacheMisses = fetchAfter.cacheMisses - fetchBefore.cacheMisses;
  layers.cacheInvalidations =
      fetchAfter.cacheInvalidations - fetchBefore.cacheInvalidations;
  layers.aclReaderEnvelopes = decrypted.size();

  // Untimed audit on the healed network: one current member reads every
  // author's timeline, which must verify and hold exactly what was published.
  trace.setPhase(kAuditPhase);
  net.setFaultPlan(nullptr);
  for (std::uint32_t author = 0; author < spec.users; ++author) {
    std::uint32_t reader = author;
    for (const std::uint32_t member : gen.circleOf(author)) {
      if (isMember(author, member)) {
        reader = member;
        break;
      }
    }
    ++out.auditReads;
    std::optional<FetchedTimeline> read;
    users[reader]->fetchTimeline(social::syntheticUser(author),
                                 [&read](FetchedTimeline t) { read = t; });
    runAll();
    const bool verified = read && read->headValid && read->chainValid;
    if (verified &&
        checkRead(published[author], true, *read, /*final=*/true).empty()) {
      continue;
    }
    // A read that is not the whole published timeline is exempt only where
    // the stores show a named fault; everything else is a violation.
    const social::UserId name = social::syntheticUser(author);
    AuditShortfall gap;
    gap.author = name;
    gap.published = published[author].size();
    gap.read = verified ? read->posts.size() : 0;
    gap.verified = verified;
    const overlay::OverlayId key = MicroblogNode::headKey(name);
    const auto headLength = [&key](overlay::KademliaNode& node) {
      const auto bytes = node.blockStore().get(key);
      const auto head = bytes ? app::HeadRecord::deserialize(*bytes)
                              : std::nullopt;
      return head ? static_cast<std::size_t>(head->length) : std::size_t{0};
    };
    for (overlay::KademliaNode* node : dhtNodes) {
      gap.freshestCopy = std::max(gap.freshestCopy, headLength(*node));
    }
    std::optional<Fault> fault;
    std::string why;
    if (!verified) {
      if (storedNowhere(author)) {
        fault = Fault::kStoredNowhere;
      } else {
        probe(reader, author, [&fault](bool missed) {
          if (missed) fault = Fault::kOutOfReach;
        });
        runAll();
      }
      why = "did not verify";
    } else if (const std::string error =
                   checkRead(published[author], true, *read, /*final=*/false);
               !error.empty()) {
      why = error;
    } else {
      // The copy the lookup returned: the reader's own or a reached replica's.
      std::vector<overlay::KademliaNode*> asked = reachedBy(key);
      asked.push_back(&users[reader]->dht());
      const auto holds = [&](std::size_t length) {
        return std::any_of(asked.begin(), asked.end(),
                           [&](overlay::KademliaNode* node) {
                             return headLength(*node) == length;
                           });
      };
      why = "read " + std::to_string(gap.read) + " of " +
            std::to_string(gap.published) + " posts";
      if (holds(gap.read)) {
        if (holds(gap.published)) {
          fault = Fault::kFirstCopyWins;
        } else {
          fault = gap.freshestCopy >= gap.published ? Fault::kOutOfReach
                                                    : Fault::kStoredNowhere;
        }
      } else {
        why += ", which no reached copy of the head covers";
      }
    }
    if (!fault) {
      out.violations.push_back("audit of " + name + ": " + why);
      continue;
    }
    gap.fault = *fault;
    out.shortfalls.push_back(gap);
  }
  trace.setPhase(kSetupPhase);
  trace.setEnabled(false);
  return out;
}

}  // namespace perfbench
