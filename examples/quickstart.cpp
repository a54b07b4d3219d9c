// Quickstart: three user clients on a small simulated DHT, a friends circle,
// an encrypted post, a verified timeline, and a revocation — the library's
// core loop, end to end.
//
//   ./quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "dosn/app/microblog.hpp"
#include "dosn/privacy/hybrid_acl.hpp"

int main() {
  using namespace dosn;

  util::Rng rng(2026);
  const pkcrypto::DlogGroup& group = pkcrypto::DlogGroup::cached(512);

  // Shared infrastructure: the out-of-band key registry and an access
  // controller (hybrid encryption: symmetric payload + per-member key wrap).
  social::IdentityRegistry registry;
  privacy::HybridAcl acl(group, rng, privacy::WrapScheme::kPublicKey);

  // A small simulated network with eight plain DHT peers to replicate on.
  sim::Simulator simulator;
  sim::Network network(simulator, sim::LatencyModel{}, rng);
  std::vector<std::unique_ptr<overlay::KademliaNode>> peers;
  for (int i = 0; i < 8; ++i) {
    peers.push_back(std::make_unique<overlay::KademliaNode>(
        network, overlay::OverlayId::random(rng)));
    if (i > 0) peers.back()->bootstrap({peers[0]->id(), peers[0]->addr()});
    simulator.run();
  }

  // Three user clients, each joining the DHT.
  auto client = [&](const char* user) {
    auto node = std::make_unique<app::MicroblogNode>(
        network, overlay::OverlayId::random(rng), group, user, registry, acl,
        rng);
    node->join({peers[0]->id(), peers[0]->addr()});
    simulator.run();
    return node;
  };
  auto alice = client("alice");
  auto bob = client("bob");
  auto eve = client("eve");

  // Alice creates a circle and shares a post with Bob.
  alice->createCircle("friends");
  alice->addToCircle("friends", "bob");
  alice->publish("friends", "Hello from my decentralized wall!", /*now=*/1,
                 rng);
  simulator.run();

  // A reader fetches alice's timeline from the DHT: it verifies her signed
  // head and hash chain, then decrypts what its circle membership allows.
  auto fetch = [&](app::MicroblogNode& reader) {
    app::FetchedTimeline timeline;
    reader.fetchTimeline("alice", [&](app::FetchedTimeline t) {
      timeline = std::move(t);
    });
    simulator.run();
    return timeline;
  };
  auto show = [](const char* label, const app::FetchedTimeline& timeline) {
    std::printf("%s %s\n", label,
                timeline.posts.empty() ? "(access denied)"
                                       : timeline.posts[0].text.c_str());
  };

  const auto bobView = fetch(*bob);
  show("bob reads:", bobView);
  std::printf("timeline verified: %s\n", bobView.chainValid ? "yes" : "NO");

  // Eve is not in the circle: she can verify the chain but not decrypt.
  show("eve reads:", fetch(*eve));

  // Revocation: bob is removed; the retained history is re-encrypted.
  const auto report = alice->removeFromCircle("friends", "bob");
  std::printf("revocation re-encrypted %zu envelope(s)\n",
              report.reencryptedEnvelopes);
  std::printf("bob after revocation: %s\n",
              fetch(*bob).posts.empty() ? "(access denied)"
                                        : "still reads (BUG)");
  return 0;
}
