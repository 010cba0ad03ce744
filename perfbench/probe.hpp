// Crypto unit-cost probe: per-call costs of the public commitment, decode
// and signature entry points at a workload's group, n and t, on warm inputs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/group.hpp"

namespace perfbench {

struct CryptoUnitCosts {
  double verify_point_us = 0;     // FeldmanMatrix::verify_point, one receiver's n points
  double verify_poly_us = 0;      // FeldmanMatrix::verify_poly of a row polynomial
  double schnorr_verify_us = 0;   // Keyring::verify_from on a never-seen signature
  double commit_ms = 0;           // FeldmanMatrix::commit of a fresh dealing
  double decode_us = 0;           // FeldmanMatrix::from_bytes_checked of a full matrix
};

/// Medians over repeated timed batches; every call's verdict is checked and
/// a wrong one throws. Takes roughly `budget_s` seconds in total.
CryptoUnitCosts probe_crypto(const dkg::crypto::Group& grp, std::size_t n, std::size_t t,
                             std::uint64_t seed, double budget_s);

}  // namespace perfbench
