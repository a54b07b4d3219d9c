// Forwarding adapters the traced run puts at the program's own seams: a
// PlacementPolicy (KademliaConfig::placement), a BlockStore
// (KademliaConfig::makeStore) and an AccessController (the reference every
// MicroblogNode holds). Each forwards every call unchanged, so a traced day
// replays exactly the untraced one, and records a span plus counts around
// the calls the per-layer metrics need.
#pragma once

#include <memory>
#include <set>
#include <utility>

#include "dosn/overlay/placement.hpp"
#include "dosn/privacy/access_controller.hpp"
#include "dosn/store/block_store.hpp"
#include "trace.hpp"

namespace perfbench {

class TracedPlacement final : public dosn::overlay::PlacementPolicy {
 public:
  explicit TracedPlacement(dosn::overlay::PlacementPolicy& inner)
      : inner_(inner) {}

  std::vector<dosn::sim::NodeAddr> select(
      const dosn::overlay::PlacementContext& ctx, std::size_t count,
      const std::vector<dosn::sim::NodeAddr>& candidates) override {
    const Scope span(Span::kOverlayPlace);
    return inner_.select(ctx, count, candidates);
  }
  std::string name() const override { return inner_.name(); }

 private:
  dosn::overlay::PlacementPolicy& inner_;
};

class TracedStore final : public dosn::store::StoreDecorator {
 public:
  explicit TracedStore(std::unique_ptr<dosn::store::BlockStore> inner)
      : StoreDecorator(std::move(inner)) {}

  void put(const dosn::store::BlockId& id, dosn::util::BytesView data) override {
    const Scope span(Span::kStorePut);
    inner_->put(id, data);
  }
  std::optional<dosn::util::Bytes> get(const dosn::store::BlockId& id) override {
    const Scope span(Span::kStoreGet);
    return inner_->get(id);
  }
  bool erase(const dosn::store::BlockId& id) override { return inner_->erase(id); }
  std::string describe() const override { return inner_->describe(); }
};

/// Distinct (reader, envelope serial) pairs decrypted: decrypt calls per
/// pair is the repeated-unwrap waste a read-path key cache would remove.
using ReaderEnvelopes = std::set<std::pair<std::string, std::uint64_t>>;

class TracedAcl final : public dosn::privacy::AccessController {
 public:
  TracedAcl(dosn::privacy::AccessController& inner, ReaderEnvelopes& decrypted)
      : inner_(inner), decrypted_(decrypted) {}

  std::string schemeName() const override { return inner_.schemeName(); }
  void createGroup(const dosn::privacy::GroupId& group) override {
    inner_.createGroup(group);
  }
  void addMember(const dosn::privacy::GroupId& group,
                 const dosn::privacy::UserId& user) override {
    inner_.addMember(group, user);
  }
  dosn::privacy::RevocationReport removeMember(
      const dosn::privacy::GroupId& group,
      const dosn::privacy::UserId& user) override {
    const Scope span(Span::kAclRevoke);
    return inner_.removeMember(group, user);
  }
  std::vector<dosn::privacy::UserId> members(
      const dosn::privacy::GroupId& group) const override {
    return inner_.members(group);
  }
  bool isMember(const dosn::privacy::GroupId& group,
                const dosn::privacy::UserId& user) const override {
    return inner_.isMember(group, user);
  }
  dosn::privacy::Envelope encrypt(const dosn::privacy::GroupId& group,
                                  dosn::util::BytesView plaintext,
                                  dosn::util::Rng& rng) override {
    const Scope span(Span::kAclEncrypt);
    return inner_.encrypt(group, plaintext, rng);
  }
  std::optional<dosn::util::Bytes> decrypt(
      const dosn::privacy::UserId& reader,
      const dosn::privacy::Envelope& envelope) override {
    const Scope span(Span::kAclDecrypt);
    decrypted_.emplace(reader, envelope.serial);
    return inner_.decrypt(reader, envelope);
  }
  std::vector<dosn::privacy::Envelope> history(
      const dosn::privacy::GroupId& group) const override {
    return inner_.history(group);
  }

 private:
  dosn::privacy::AccessController& inner_;
  ReaderEnvelopes& decrypted_;
};

}  // namespace perfbench
