// Integration tests for the decentralized microblog: full-stack flows over
// the simulated DHT (publish -> replicate -> fetch -> verify -> decrypt),
// circle management and revocation over every ACL family, and
// malicious-replica tampering.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "dosn/app/microblog.hpp"
#include "dosn/privacy/abe_acl.hpp"
#include "dosn/privacy/hybrid_acl.hpp"
#include "dosn/privacy/ibbe_acl.hpp"
#include "dosn/privacy/symmetric_acl.hpp"
#include "dosn/util/error.hpp"

namespace dosn::app {
namespace {

using overlay::Contact;
using overlay::OverlayId;
using sim::kMillisecond;
using Texts = std::vector<std::string>;

const pkcrypto::DlogGroup& testGroup() {
  return pkcrypto::DlogGroup::cached(256);
}

using AclFactory = std::unique_ptr<AccessController> (*)(util::Rng&);

std::unique_ptr<AccessController> makeSymmetric(util::Rng& rng) {
  return std::make_unique<privacy::SymmetricAcl>(rng);
}

class MicroblogTest : public ::testing::Test {
 protected:
  explicit MicroblogTest(AclFactory makeAcl = makeSymmetric)
      : acl_(makeAcl(rng_)) {
    // A small DHT substrate of plain peers for replication.
    for (int i = 0; i < 12; ++i) {
      peers_.push_back(std::make_unique<overlay::KademliaNode>(
          net_, OverlayId::random(rng_)));
      stores_.push_back(&peers_.back()->blockStore());
    }
    seed_ = Contact{peers_[0]->id(), peers_[0]->addr()};
    for (std::size_t i = 1; i < peers_.size(); ++i) {
      peers_[i]->bootstrap(seed_);
      sim_.run();
    }
    alice_ = makeNode("alice");
    bob_ = makeNode("bob");
    eve_ = makeNode("eve");
  }

  std::unique_ptr<MicroblogNode> makeNode(const std::string& user) {
    auto node = std::make_unique<MicroblogNode>(
        net_, OverlayId::random(rng_), group_, user, registry_, *acl_, rng_);
    stores_.push_back(&node->blockStore());
    node->join(seed_);
    sim_.run();
    return node;
  }

  FetchedTimeline fetch(MicroblogNode& reader, const UserId& author) {
    FetchedTimeline fetched;
    bool fired = false;
    reader.fetchTimeline(author, [&](FetchedTimeline t) {
      fetched = std::move(t);
      fired = true;
    });
    sim_.run();
    EXPECT_TRUE(fired) << "fetch of " << author << " never completed";
    return fetched;
  }

  static Texts texts(const FetchedTimeline& fetched) {
    Texts out;
    for (const social::Post& post : fetched.posts) out.push_back(post.text);
    return out;
  }

  // Any stored copy of `author`'s entry `seq`.
  std::optional<TimelineRecord> storedRecord(const UserId& author,
                                             std::uint64_t seq) {
    for (store::BlockStore* store : stores_) {
      if (auto value = store->get(MicroblogNode::entryKey(author, seq))) {
        return TimelineRecord::deserialize(*value);
      }
    }
    return std::nullopt;
  }

  // A malicious replica set: rewrites the envelope of every stored copy of
  // `author`'s entry `seq`, leaving its chain entry untouched. Returns the
  // number of copies rewritten.
  std::size_t rewriteStored(
      const UserId& author, std::uint64_t seq,
      const std::function<void(privacy::Envelope&)>& edit) {
    const OverlayId key = MicroblogNode::entryKey(author, seq);
    std::size_t rewritten = 0;
    for (store::BlockStore* store : stores_) {
      const auto value = store->get(key);
      if (!value) continue;
      auto record = TimelineRecord::deserialize(*value);
      edit(record->envelope);
      store->put(key, record->serialize());
      ++rewritten;
    }
    return rewritten;
  }

  util::Rng rng_{42};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{5 * kMillisecond, 2 * kMillisecond, 0.0},
                    rng_};
  const pkcrypto::DlogGroup& group_ = testGroup();
  social::IdentityRegistry registry_;
  std::unique_ptr<AccessController> acl_;
  std::vector<std::unique_ptr<overlay::KademliaNode>> peers_;
  std::vector<store::BlockStore*> stores_;  // every node's, peers first
  Contact seed_;
  std::unique_ptr<MicroblogNode> alice_;
  std::unique_ptr<MicroblogNode> bob_;
  std::unique_ptr<MicroblogNode> eve_;
};

TEST_F(MicroblogTest, PublishFetchDecrypt) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  bool published = false;
  alice_->publish("friends", "first!", 1, rng_, [&](bool ok) { published = ok; });
  sim_.run();
  EXPECT_TRUE(published);
  alice_->publish("friends", "second", 2, rng_);
  sim_.run();

  const FetchedTimeline fetched = fetch(*bob_, "alice");
  EXPECT_TRUE(fetched.headValid);
  EXPECT_TRUE(fetched.chainValid);
  ASSERT_EQ(texts(fetched), (Texts{"first!", "second"}));
  EXPECT_EQ(fetched.posts[0].author, "alice");
  EXPECT_EQ(fetched.undecryptable, 0u);
}

TEST_F(MicroblogTest, PublishAndFriendReads) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "hello friends", 100, rng_);
  sim_.run();

  const FetchedTimeline fetched = fetch(*bob_, "alice");
  ASSERT_EQ(fetched.posts.size(), 1u);
  EXPECT_EQ(fetched.posts[0].text, "hello friends");
  EXPECT_EQ(fetched.posts[0].author, "alice");
}

TEST_F(MicroblogTest, NonMemberCannotRead) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "secret", 100, rng_);
  sim_.run();
  EXPECT_EQ(texts(fetch(*bob_, "alice")), Texts{"secret"});
  EXPECT_TRUE(fetch(*eve_, "alice").posts.empty());
}

TEST_F(MicroblogTest, ReadOutOfRangeFails) {
  // Alice published nothing, so there is no entry 0 for Bob to read.
  const FetchedTimeline fetched = fetch(*bob_, "alice");
  EXPECT_TRUE(fetched.posts.empty());
  EXPECT_EQ(fetched.undecryptable, 0u);
  EXPECT_FALSE(storedRecord("alice", 0).has_value());
}

TEST_F(MicroblogTest, NonMemberSeesCiphertextOnly) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "secret plan", 1, rng_);
  sim_.run();

  const FetchedTimeline fetched = fetch(*eve_, "alice");
  // Eve can verify integrity (public) but decrypt nothing (confidential).
  EXPECT_TRUE(fetched.chainValid);
  EXPECT_TRUE(fetched.posts.empty());
  EXPECT_EQ(fetched.undecryptable, 1u);
}

TEST_F(MicroblogTest, OwnerAlwaysReadsOwnPosts) {
  alice_->createCircle("empty");
  alice_->publish("empty", "note to self", 1, rng_);
  sim_.run();
  EXPECT_EQ(texts(fetch(*alice_, "alice")), Texts{"note to self"});
}

TEST_F(MicroblogTest, TimelineChainsAllPublishes) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  for (int i = 0; i < 4; ++i) {
    alice_->publish("friends", "post " + std::to_string(i),
                    static_cast<social::Timestamp>(i), rng_);
    sim_.run();
  }
  EXPECT_EQ(alice_->publishedCount(), 4u);
  const FetchedTimeline fetched = fetch(*bob_, "alice");
  EXPECT_TRUE(fetched.chainValid);
  EXPECT_EQ(texts(fetched), (Texts{"post 0", "post 1", "post 2", "post 3"}));
}

TEST_F(MicroblogTest, CannotRevokeOwner) {
  alice_->createCircle("c");
  EXPECT_THROW(alice_->removeFromCircle("c", "alice"), util::DosnError);
}

TEST_F(MicroblogTest, CircleNamespacesAreIsolatedBetweenUsers) {
  alice_->createCircle("friends");
  bob_->createCircle("friends");  // same name, different namespace
  alice_->addToCircle("friends", "carol");
  EXPECT_FALSE(acl_->isMember("bob/friends", "carol"));
  EXPECT_TRUE(acl_->isMember("alice/friends", "carol"));
}

TEST_F(MicroblogTest, UnknownAuthorFails) {
  EXPECT_FALSE(fetch(*bob_, "nobody").headValid);
}

TEST_F(MicroblogTest, EmptyTimelineFetches) {
  // Alice never published: no head record exists in the DHT.
  EXPECT_FALSE(fetch(*bob_, "alice").headValid);  // nothing stored yet
}

TEST_F(MicroblogTest, TamperedReplicaDetected) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "genuine", 1, rng_);
  sim_.run();

  // A malicious replica set overwrites entry 0 with forged bytes (store is
  // unauthenticated at the DHT layer — the chain must catch it).
  TimelineRecord forged;
  forged.entry.seq = 0;
  forged.entry.payload = util::toBytes("forged");
  forged.envelope.scheme = "symmetric";
  forged.envelope.group = "alice/friends";
  forged.envelope.serial = 999;
  forged.envelope.blob = util::toBytes("junk");
  peers_[3]->store(MicroblogNode::entryKey("alice", 0), forged.serialize());
  sim_.run();

  const FetchedTimeline fetched = fetch(*bob_, "alice");
  EXPECT_TRUE(fetched.headValid);
  EXPECT_FALSE(fetched.chainValid);
  EXPECT_TRUE(fetched.posts.empty());
}

TEST_F(MicroblogTest, ForgedHeadRejected) {
  alice_->createCircle("friends");
  alice_->publish("friends", "post", 1, rng_);
  sim_.run();

  // A forger (without alice's key) plants a head record claiming 5 entries.
  HeadRecord fake;
  fake.length = 5;
  fake.headHash = crypto::sha256(util::toBytes("nope"));
  const auto forgerKey = pkcrypto::schnorrGenerate(group_, rng_);
  fake.signature =
      pkcrypto::schnorrSign(group_, forgerKey, fake.signedBytes(), rng_);
  peers_[5]->store(MicroblogNode::headKey("alice"), fake.serialize());
  sim_.run();

  const FetchedTimeline fetched = fetch(*bob_, "alice");
  // Depending on which replica answers, bob sees either the genuine head
  // (valid chain) or the forged head (rejected signature) — never a forged
  // timeline accepted as valid.
  if (fetched.headValid) {
    EXPECT_TRUE(fetched.chainValid);
    EXPECT_LE(fetched.posts.size(), 1u);
  } else {
    EXPECT_FALSE(fetched.chainValid);
  }
}

TEST_F(MicroblogTest, RecordSerializationRoundTrips) {
  HeadRecord head;
  head.length = 7;
  head.headHash = crypto::sha256(util::toBytes("x"));
  const auto key = pkcrypto::schnorrGenerate(group_, rng_);
  head.signature = pkcrypto::schnorrSign(group_, key, head.signedBytes(), rng_);
  const auto headBack = HeadRecord::deserialize(head.serialize());
  ASSERT_TRUE(headBack.has_value());
  EXPECT_EQ(headBack->length, 7u);
  EXPECT_EQ(headBack->headHash, head.headHash);
  EXPECT_FALSE(HeadRecord::deserialize(util::toBytes("junk")).has_value());
  EXPECT_FALSE(TimelineRecord::deserialize(util::toBytes("junk")).has_value());
}

// --- The same scenarios over every ACL family ---

struct AclCase {
  const char* name;
  AclFactory make;
  bool reencryptsHistory;  // revocation re-encrypts the retained posts
};

void PrintTo(const AclCase& acl, std::ostream* os) { *os << acl.name; }

class MicroblogAclTest : public MicroblogTest,
                         public ::testing::WithParamInterface<AclCase> {
 protected:
  MicroblogAclTest() : MicroblogTest(GetParam().make) {}
};

TEST_P(MicroblogAclTest, PublishReadRevoke) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "before", 1, rng_);
  sim_.run();
  EXPECT_EQ(texts(fetch(*bob_, "alice")), Texts{"before"});
  const FetchedTimeline eveView = fetch(*eve_, "alice");
  EXPECT_TRUE(eveView.chainValid);
  EXPECT_TRUE(eveView.posts.empty());

  const bool reencrypts = GetParam().reencryptsHistory;
  const auto report = alice_->removeFromCircle("friends", "bob");
  EXPECT_EQ(report.reencryptedEnvelopes, reencrypts ? 1u : 0u);
  alice_->publish("friends", "after", 2, rng_);
  sim_.run();

  // Revocation is forward-effective under every scheme; the schemes that
  // re-encrypt retained history also cut bob off from the earlier post.
  const FetchedTimeline bobView = fetch(*bob_, "alice");
  EXPECT_TRUE(bobView.chainValid);
  EXPECT_EQ(texts(bobView), reencrypts ? Texts{} : Texts{"before"});
  EXPECT_EQ(texts(fetch(*alice_, "alice")), (Texts{"before", "after"}));
}

TEST_P(MicroblogAclTest, ReplicaCannotRebindEnvelopeMetadata) {
  // ACLs resolve an envelope by (group, serial), so a replica that rewrites
  // either makes a reader decrypt a different stored post. The chain entry
  // commits to both, so the rewrite must fail verification.
  auto carol = makeNode("carol");
  carol->createCircle("friends");
  carol->addToCircle("friends", "bob");
  carol->publish("friends", "carol-secret", 1, rng_);
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "alice-0", 2, rng_);
  sim_.run();
  alice_->publish("friends", "alice-1", 3, rng_);
  sim_.run();
  ASSERT_EQ(texts(fetch(*bob_, "alice")), (Texts{"alice-0", "alice-1"}));
  const privacy::Envelope carol0 = storedRecord("carol", 0)->envelope;
  const privacy::Envelope alice1 = storedRecord("alice", 1)->envelope;

  // (a) another author's post injected; (b) alice's own posts reordered.
  for (const privacy::Envelope& target : {carol0, alice1}) {
    SCOPED_TRACE(target.group + " #" + std::to_string(target.serial));
    ASSERT_GT(rewriteStored("alice", 0,
                            [&](privacy::Envelope& envelope) {
                              envelope.group = target.group;
                              envelope.serial = target.serial;
                            }),
              0u);
    const FetchedTimeline fetched = fetch(*bob_, "alice");
    EXPECT_TRUE(fetched.headValid);
    EXPECT_FALSE(fetched.chainValid);
    EXPECT_TRUE(fetched.posts.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryAcl, MicroblogAclTest,
    ::testing::Values(
        AclCase{"Symmetric", makeSymmetric, true},
        AclCase{"HybridPk",
                [](util::Rng& rng) -> std::unique_ptr<AccessController> {
                  return std::make_unique<privacy::HybridAcl>(
                      testGroup(), rng, privacy::WrapScheme::kPublicKey);
                },
                true},
        AclCase{"HybridIbbe",
                [](util::Rng& rng) -> std::unique_ptr<AccessController> {
                  return std::make_unique<privacy::HybridAcl>(
                      testGroup(), rng, privacy::WrapScheme::kIbbe);
                },
                true},
        AclCase{"Ibbe",
                [](util::Rng& rng) -> std::unique_ptr<AccessController> {
                  return std::make_unique<privacy::IbbeAcl>(testGroup(), rng);
                },
                false},
        AclCase{"CpAbe",
                [](util::Rng& rng) -> std::unique_ptr<AccessController> {
                  return std::make_unique<privacy::AbeAcl>(testGroup(), rng);
                },
                true}),
    [](const ::testing::TestParamInfo<AclCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dosn::app
