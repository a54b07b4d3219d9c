// Link-time interposition on the crypto entry points the traced run
// measures. The program's modules are static libraries, so the linker's
// --wrap=<symbol> sends every call made from another object file (the ACL,
// the timeline, the microblog client) to __wrap_<symbol>, which records a
// span and calls the original through __real_<symbol>. Calls inside the
// defining object file are not redirected; the spans therefore cover the
// calls that cross a module boundary, which is where each layer is entered.
//
// The mangled names come from CMakeLists.txt (PERFBENCH_SYM_*), the one
// place that lists them. The __real_ declarations are weak: if a later
// change renames one of these functions, nothing references the old symbol,
// its wrapper is never called, and the build still links (the metric then
// reads 0 instead of breaking the benchmark).
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dosn/ibbe/ibbe.hpp"
#include "dosn/integrity/hash_chain.hpp"
#include "dosn/pkcrypto/schnorr.hpp"
#include "trace.hpp"

using namespace dosn;
using perfbench::Scope;
using perfbench::Span;

// Member functions take `this` as their first argument in the Itanium C++
// ABI, which is how the Pkg::extract pair below is declared.
extern ibbe::IbbeUserKey realExtract(const ibbe::Pkg* pkg,
                                     const std::string& identity)
    __asm__("__real_" PERFBENCH_SYM_IBBE_EXTRACT) __attribute__((weak));
extern ibbe::IbbeCiphertext realIbbeEncrypt(
    const pkcrypto::DlogGroup& group,
    const std::map<std::string, bignum::BigUint>& directory,
    const std::vector<std::string>& recipients, util::BytesView plaintext,
    util::Rng& rng)
    __asm__("__real_" PERFBENCH_SYM_IBBE_ENCRYPT) __attribute__((weak));
extern std::optional<util::Bytes> realIbbeDecrypt(
    const pkcrypto::DlogGroup& group, const ibbe::IbbeUserKey& key,
    const ibbe::IbbeCiphertext& ct)
    __asm__("__real_" PERFBENCH_SYM_IBBE_DECRYPT) __attribute__((weak));
extern pkcrypto::SchnorrSignature realSchnorrSign(
    const pkcrypto::DlogGroup& group, const pkcrypto::SchnorrPrivateKey& key,
    util::BytesView message, util::Rng& rng)
    __asm__("__real_" PERFBENCH_SYM_SCHNORR_SIGN) __attribute__((weak));
extern bool realSchnorrVerify(const pkcrypto::DlogGroup& group,
                              const pkcrypto::SchnorrPublicKey& key,
                              util::BytesView message,
                              const pkcrypto::SchnorrSignature& sig)
    __asm__("__real_" PERFBENCH_SYM_SCHNORR_VERIFY) __attribute__((weak));
extern std::vector<bool> realSchnorrVerifyBatch(
    const pkcrypto::DlogGroup& group,
    const std::vector<pkcrypto::SchnorrBatchItem>& items)
    __asm__("__real_" PERFBENCH_SYM_SCHNORR_VERIFY_BATCH) __attribute__((weak));
extern bool realVerifyChain(const pkcrypto::DlogGroup& group,
                            const pkcrypto::SchnorrPublicKey& publisherKey,
                            const std::vector<integrity::ChainEntry>& entries)
    __asm__("__real_" PERFBENCH_SYM_VERIFY_CHAIN) __attribute__((weak));

ibbe::IbbeUserKey wrapExtract(const ibbe::Pkg* pkg,
                              const std::string& identity)
    __asm__("__wrap_" PERFBENCH_SYM_IBBE_EXTRACT);
ibbe::IbbeUserKey wrapExtract(const ibbe::Pkg* pkg,
                              const std::string& identity) {
  const Scope span(Span::kIbbeExtract);
  return realExtract(pkg, identity);
}

ibbe::IbbeCiphertext wrapIbbeEncrypt(
    const pkcrypto::DlogGroup& group,
    const std::map<std::string, bignum::BigUint>& directory,
    const std::vector<std::string>& recipients, util::BytesView plaintext,
    util::Rng& rng) __asm__("__wrap_" PERFBENCH_SYM_IBBE_ENCRYPT);
ibbe::IbbeCiphertext wrapIbbeEncrypt(
    const pkcrypto::DlogGroup& group,
    const std::map<std::string, bignum::BigUint>& directory,
    const std::vector<std::string>& recipients, util::BytesView plaintext,
    util::Rng& rng) {
  const Scope span(Span::kIbbeEncrypt);
  return realIbbeEncrypt(group, directory, recipients, plaintext, rng);
}

std::optional<util::Bytes> wrapIbbeDecrypt(const pkcrypto::DlogGroup& group,
                                           const ibbe::IbbeUserKey& key,
                                           const ibbe::IbbeCiphertext& ct)
    __asm__("__wrap_" PERFBENCH_SYM_IBBE_DECRYPT);
std::optional<util::Bytes> wrapIbbeDecrypt(const pkcrypto::DlogGroup& group,
                                           const ibbe::IbbeUserKey& key,
                                           const ibbe::IbbeCiphertext& ct) {
  const Scope span(Span::kIbbeDecrypt);
  return realIbbeDecrypt(group, key, ct);
}

pkcrypto::SchnorrSignature wrapSchnorrSign(
    const pkcrypto::DlogGroup& group, const pkcrypto::SchnorrPrivateKey& key,
    util::BytesView message, util::Rng& rng)
    __asm__("__wrap_" PERFBENCH_SYM_SCHNORR_SIGN);
pkcrypto::SchnorrSignature wrapSchnorrSign(
    const pkcrypto::DlogGroup& group, const pkcrypto::SchnorrPrivateKey& key,
    util::BytesView message, util::Rng& rng) {
  const Scope span(Span::kSchnorrSign);
  return realSchnorrSign(group, key, message, rng);
}

bool wrapSchnorrVerify(const pkcrypto::DlogGroup& group,
                       const pkcrypto::SchnorrPublicKey& key,
                       util::BytesView message,
                       const pkcrypto::SchnorrSignature& sig)
    __asm__("__wrap_" PERFBENCH_SYM_SCHNORR_VERIFY);
bool wrapSchnorrVerify(const pkcrypto::DlogGroup& group,
                       const pkcrypto::SchnorrPublicKey& key,
                       util::BytesView message,
                       const pkcrypto::SchnorrSignature& sig) {
  const Scope span(Span::kSchnorrVerify);
  return realSchnorrVerify(group, key, message, sig);
}

std::vector<bool> wrapSchnorrVerifyBatch(
    const pkcrypto::DlogGroup& group,
    const std::vector<pkcrypto::SchnorrBatchItem>& items)
    __asm__("__wrap_" PERFBENCH_SYM_SCHNORR_VERIFY_BATCH);
std::vector<bool> wrapSchnorrVerifyBatch(
    const pkcrypto::DlogGroup& group,
    const std::vector<pkcrypto::SchnorrBatchItem>& items) {
  const Scope span(Span::kSchnorrVerify);
  return realSchnorrVerifyBatch(group, items);
}

bool wrapVerifyChain(const pkcrypto::DlogGroup& group,
                     const pkcrypto::SchnorrPublicKey& publisherKey,
                     const std::vector<integrity::ChainEntry>& entries)
    __asm__("__wrap_" PERFBENCH_SYM_VERIFY_CHAIN);
bool wrapVerifyChain(const pkcrypto::DlogGroup& group,
                     const pkcrypto::SchnorrPublicKey& publisherKey,
                     const std::vector<integrity::ChainEntry>& entries) {
  const Scope span(Span::kVerifyChain);
  return realVerifyChain(group, publisherKey, entries);
}
