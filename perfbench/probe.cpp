#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bipolynomial.hpp"
#include "crypto/feldman.hpp"
#include "crypto/keyring.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dkg::crypto::BiPolynomial;
using dkg::crypto::FeldmanMatrix;
using dkg::crypto::Polynomial;
using dkg::crypto::Scalar;

constexpr std::size_t kDealings = 4;     // warm commitments the verify probes rotate over
constexpr std::size_t kReceivers = 8;    // receiver indices per commitment
constexpr std::size_t kMinSamples = 5;
constexpr std::size_t kMaxSamples = kDealings * kReceivers;
constexpr std::size_t kSigBatches = 12;  // pre-signed batches of n fresh signatures

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("perfbench probe: wrong verdict from " + what);
}

/// Times `batch(sample)` (which makes `calls` calls) until it has at least
/// kMinSamples samples and `budget_s` has passed, or `max_samples` samples;
/// returns the median seconds per call.
double per_call_median(std::size_t calls, double budget_s, std::size_t max_samples,
                       const std::function<void(std::size_t)>& batch) {
  std::vector<double> samples;
  Clock::time_point start = Clock::now();
  for (std::size_t s = 0; s < max_samples; ++s) {
    Clock::time_point t0 = Clock::now();
    batch(s);
    samples.push_back(seconds_since(t0) / static_cast<double>(calls));
    if (samples.size() >= kMinSamples && seconds_since(start) >= budget_s) break;
  }
  return median(samples);
}

}  // namespace

CryptoUnitCosts probe_crypto(const dkg::crypto::Group& grp, std::size_t n, std::size_t t,
                             std::uint64_t seed, double budget_s) {
  dkg::crypto::Drbg rng(seed);
  const double slice = budget_s / 5;
  const std::size_t receivers = std::min(kReceivers, n - 1);

  std::vector<BiPolynomial> polys;
  for (std::size_t k = 0; k < kMaxSamples; ++k) {
    polys.push_back(BiPolynomial::random(Scalar::random(grp, rng), t, rng));
  }
  // Reserved: a moved FeldmanMatrix starts with empty caches.
  std::vector<FeldmanMatrix> comms;
  comms.reserve(kDealings);
  std::vector<dkg::Bytes> encoded;
  // alphas[k][i-1][m-1] = f_k(m, i); rows[k][i-1] = f_k(i, y).
  std::vector<std::vector<std::vector<Scalar>>> alphas(kDealings);
  std::vector<std::vector<Polynomial>> rows(kDealings);
  for (std::size_t k = 0; k < kDealings; ++k) {
    comms.push_back(FeldmanMatrix::commit(polys[k]));
    encoded.push_back(comms[k].to_bytes());
    for (std::uint64_t i = 1; i <= receivers + 1; ++i) {
      std::vector<Scalar> pts;
      for (std::uint64_t m = 1; m <= n; ++m) {
        // reveal-ok: benchmark inputs; the probe checks points it dealt itself.
        pts.push_back(polys[k].eval_at(m, i).reveal());
      }
      alphas[k].push_back(std::move(pts));
      rows[k].push_back(polys[k].row(i));
    }
    // Warm the commitment's caches (Montgomery images, ec256 share grid)
    // with the checks of one receiver that the timed samples never use.
    const std::uint64_t warm = receivers + 1;
    for (std::uint64_t m = 1; m <= n; ++m) {
      check(comms[k].verify_point(warm, m, alphas[k][warm - 1][m - 1]), "verify_point");
    }
    check(comms[k].verify_poly(warm, rows[k][warm - 1]), "verify_poly");
  }

  CryptoUnitCosts out;
  out.commit_ms = 1e3 * per_call_median(1, slice, kMaxSamples, [&](std::size_t s) {
    FeldmanMatrix c = FeldmanMatrix::commit(polys[s % polys.size()]);
    check(c.degree() == t, "commit");
  });
  out.verify_point_us = 1e6 * per_call_median(n, slice, kMaxSamples, [&](std::size_t s) {
    std::size_t k = s % kDealings;
    std::uint64_t i = 1 + (s / kDealings) % receivers;
    for (std::uint64_t m = 1; m <= n; ++m) {
      check(comms[k].verify_point(i, m, alphas[k][i - 1][m - 1]), "verify_point");
    }
  });
  out.verify_poly_us = 1e6 * per_call_median(receivers, slice, kMaxSamples, [&](std::size_t s) {
    std::size_t k = s % kDealings;
    for (std::uint64_t i = 1; i <= receivers; ++i) {
      check(comms[k].verify_poly(i, rows[k][i - 1]), "verify_poly");
    }
  });
  out.decode_us = 1e6 * per_call_median(kDealings, slice, kMaxSamples, [&](std::size_t) {
    for (std::size_t k = 0; k < kDealings; ++k) {
      check(FeldmanMatrix::from_bytes_checked(grp, encoded[k], t).has_value(), "from_bytes_checked");
    }
  });

  // Signatures: every timed verify is of a never-seen (message, signature)
  // pair, so the ring's verified-signature cache misses and each call runs
  // the full Schnorr check. A warm-up first builds each signer's comb table,
  // as the many verifies of a DKG run do.
  auto ring = dkg::crypto::Keyring::generate(grp, n, seed ^ 0x5167ULL);
  struct Signed {
    dkg::Bytes msg;
    dkg::crypto::Signature sig;
  };
  const std::size_t warm_rounds = dkg::crypto::SignerTables::kBuildThreshold + 1;
  std::vector<std::vector<Signed>> batches(warm_rounds + kSigBatches);
  for (auto& batch : batches) {
    for (std::uint32_t j = 1; j <= n; ++j) {
      dkg::Bytes msg = rng.bytes(32);
      dkg::crypto::Signature sig = ring->sign_as(j, msg);
      batch.push_back(Signed{std::move(msg), std::move(sig)});
    }
  }
  for (std::size_t b = 0; b < warm_rounds; ++b) {
    for (std::uint32_t j = 1; j <= n; ++j) {
      check(ring->verify_from(j, batches[b][j - 1].msg, batches[b][j - 1].sig), "verify_from");
    }
  }
  out.schnorr_verify_us = 1e6 * per_call_median(n, slice, kSigBatches, [&](std::size_t s) {
    const std::vector<Signed>& batch = batches[warm_rounds + s];
    for (std::uint32_t j = 1; j <= n; ++j) {
      check(ring->verify_from(j, batch[j - 1].msg, batch[j - 1].sig), "verify_from");
    }
  });
  return out;
}

}  // namespace perfbench
