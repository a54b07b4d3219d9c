#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

// Raw spans kept for the trace file; the aggregates cover every span.
constexpr std::size_t kKeptCap = 2'000'000;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* spanName(Span span) {
  switch (span) {
    case Span::kSimLoop: return "sim.loop";
    case Span::kOverlayPlace: return "overlay.place";
    case Span::kStorePut: return "store.put";
    case Span::kStoreGet: return "store.get";
    case Span::kAppPublish: return "app.publish";
    case Span::kAclEncrypt: return "acl.encrypt";
    case Span::kAclDecrypt: return "acl.decrypt";
    case Span::kAclRevoke: return "acl.revoke";
    case Span::kVerifyChain: return "integrity.verify_chain";
    case Span::kIbbeExtract: return "ibbe.extract";
    case Span::kIbbeEncrypt: return "ibbe.encrypt";
    case Span::kIbbeDecrypt: return "ibbe.decrypt";
    case Span::kSchnorrSign: return "pkcrypto.sign";
    case Span::kSchnorrVerify: return "pkcrypto.verify";
    case Span::kWorkloadGenerate: return "workload.generate";
    case Span::kCount: break;
  }
  return "?";
}

const char* spanLayer(Span span) {
  switch (span) {
    case Span::kSimLoop: return "sim";
    case Span::kOverlayPlace: return "overlay";
    case Span::kStorePut:
    case Span::kStoreGet: return "store";
    case Span::kAppPublish: return "app";
    case Span::kAclEncrypt:
    case Span::kAclDecrypt:
    case Span::kAclRevoke: return "privacy";
    case Span::kVerifyChain: return "integrity";
    case Span::kIbbeExtract:
    case Span::kIbbeEncrypt:
    case Span::kIbbeDecrypt: return "ibbe";
    case Span::kSchnorrSign:
    case Span::kSchnorrVerify: return "pkcrypto";
    case Span::kWorkloadGenerate: return "workload";
    case Span::kCount: break;
  }
  return "?";
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::begin(Span span) {
  std::uint32_t keptIndex = kNoParent;
  if (keeping_ && kept_.size() < kKeptCap) {
    keptIndex = static_cast<std::uint32_t>(kept_.size());
    const std::uint32_t parent =
        stack_.empty() ? kNoParent : stack_.back().keptIndex;
    kept_.push_back(SpanRecord{span, phase_, parent, 0, 0});
  }
  const std::int64_t start = nowNs();
  if (keptIndex != kNoParent) kept_[keptIndex].startNs = start;
  stack_.push_back(Frame{span, phase_, keptIndex, start, 0});
}

void Tracer::end() {
  const std::int64_t stop = nowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = stop - frame.startNs;
  SpanTotals& cell =
      totals_[static_cast<std::size_t>(frame.name)][frame.phase];
  ++cell.calls;
  cell.totalNs += duration;
  cell.selfNs += duration - frame.childNs;
  if (!stack_.empty()) stack_.back().childNs += duration;
  if (frame.keptIndex != kNoParent) kept_[frame.keptIndex].endNs = stop;
  ++recorded_;
}

SpanTotals Tracer::dayTotals(Span span) const {
  SpanTotals sum;
  for (std::size_t p = 0; p < kMaxPhases; ++p) {
    const SpanTotals& cell = totals(span, p);
    sum.calls += cell.calls;
    sum.totalNs += cell.totalNs;
    sum.selfNs += cell.selfNs;
  }
  return sum;
}

bool Tracer::writeTrace(const std::string& path,
                        const std::vector<std::string>& phaseNames) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  const auto phaseName = [&](std::size_t p) -> std::string {
    if (p == kSetupPhase) return "setup";
    if (p == kAuditPhase) return "audit";
    return p < phaseNames.size() ? phaseNames[p] : std::to_string(p);
  };
  std::fprintf(out, "# totals\tspan\tlayer\tphase\tcalls\ttotal_ns\tself_ns\n");
  for (std::size_t s = 0; s < kSpanKinds; ++s) {
    for (std::size_t p = 0; p < kPhaseSlots; ++p) {
      const SpanTotals& cell = totals_[s][p];
      if (cell.calls == 0) continue;
      std::fprintf(out, "total\t%s\t%s\t%s\t%llu\t%lld\t%lld\n",
                   spanName(static_cast<Span>(s)),
                   spanLayer(static_cast<Span>(s)), phaseName(p).c_str(),
                   static_cast<unsigned long long>(cell.calls),
                   static_cast<long long>(cell.totalNs),
                   static_cast<long long>(cell.selfNs));
    }
  }
  std::fprintf(out, "# spans\tindex\tspan\tphase\tparent\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const SpanRecord& r = kept_[i];
    std::fprintf(out, "span\t%zu\t%s\t%s\t%lld\t%lld\t%lld\n", i,
                 spanName(r.name), phaseName(r.phase).c_str(),
                 r.parent == kNoParent ? -1LL
                                       : static_cast<long long>(r.parent),
                 static_cast<long long>(r.startNs),
                 static_cast<long long>(r.endNs));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
