// Span recorder for the traced run. Spans are recorded by the benchmark's
// own code around calls into the program's layers (see layers.hpp and
// crypto_wrap.cpp); nothing inside the program is edited.
//
// Each span has a name, a start and end on the steady clock, the span that
// was open when it began (its parent) and the day phase that was current.
// Self time is a span's duration minus the time its child spans cover. The
// recorder keeps the aggregate per (span, phase) for the whole run and the
// raw spans of the first traced day in memory, and writes both out when the
// run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Span : std::uint8_t {
  kSimLoop,          // Simulator::run / runUntil, called by the replay
  kOverlayPlace,     // PlacementPolicy::select
  kStorePut,         // replica BlockStore::put
  kStoreGet,         // replica BlockStore::get
  kAppPublish,       // MicroblogNode::publish (its synchronous part)
  kAclEncrypt,       // AccessController::encrypt
  kAclDecrypt,       // AccessController::decrypt
  kAclRevoke,        // AccessController::removeMember
  kVerifyChain,      // integrity::verifyChain
  kIbbeExtract,      // ibbe::Pkg::extract
  kIbbeEncrypt,      // ibbe::ibbeEncrypt
  kIbbeDecrypt,      // ibbe::ibbeDecrypt
  kSchnorrSign,      // pkcrypto::schnorrSign
  kSchnorrVerify,    // pkcrypto::schnorrVerify / schnorrVerifyBatch
  kWorkloadGenerate, // workload::WorkloadGenerator construction
  kCount
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

const char* spanName(Span span);
/// The program module a span belongs to (the row of the self-time table).
const char* spanLayer(Span span);

/// Phase slots: the day's phases, then set-up and the post-day audit.
inline constexpr std::size_t kMaxPhases = 14;
inline constexpr std::uint8_t kSetupPhase = kMaxPhases;
inline constexpr std::uint8_t kAuditPhase = kMaxPhases + 1;
inline constexpr std::size_t kPhaseSlots = kMaxPhases + 2;

struct SpanRecord {
  Span name;
  std::uint8_t phase;
  std::uint32_t parent;  // index into the kept spans, or kNoParent
  std::int64_t startNs;
  std::int64_t endNs;
};
inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t totalNs = 0;
  std::int64_t selfNs = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  /// Turns recording on or off; only called between replayed days, when no
  /// span is open.
  void setEnabled(bool on) { enabled_ = on; }
  /// Keep raw spans (up to a cap) while this is set.
  void setKeeping(bool keep) { keeping_ = keep; }
  void setPhase(std::uint8_t phase) { phase_ = phase; }

  void begin(Span span);
  void end();

  const SpanTotals& totals(Span span, std::size_t phase) const {
    return totals_[static_cast<std::size_t>(span)][phase];
  }
  /// Sum over the day's phases (set-up and audit excluded).
  SpanTotals dayTotals(Span span) const;
  std::uint64_t recorded() const { return recorded_; }

  /// Writes the per-(span, phase) totals and the kept spans as
  /// tab-separated text. Returns false if the file could not be written.
  bool writeTrace(const std::string& path,
                  const std::vector<std::string>& phaseNames) const;

 private:
  struct Frame {
    Span name;
    std::uint8_t phase;
    std::uint32_t keptIndex;
    std::int64_t startNs;
    std::int64_t childNs;
  };

  bool enabled_ = false;
  bool keeping_ = false;
  std::uint8_t phase_ = kSetupPhase;
  std::vector<Frame> stack_;
  std::vector<SpanRecord> kept_;
  std::uint64_t recorded_ = 0;
  std::array<std::array<SpanTotals, kPhaseSlots>, kSpanKinds> totals_{};
};

Tracer& tracer();

/// RAII span; free when tracing is off.
class Scope {
 public:
  explicit Scope(Span span) : on_(tracer().enabled()) {
    if (on_) tracer().begin(span);
  }
  ~Scope() {
    if (on_) tracer().end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
