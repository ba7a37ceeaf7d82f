#include "hv/kernels.hpp"

#include <vector>

namespace lehdc::hv {

namespace {

std::vector<KernelTier> probe_tiers() {
  std::vector<KernelTier> tiers;
#if LEHDC_X86_DISPATCH
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    tiers.push_back({"avx512", &detail::hamming_avx512,
                     &detail::hamming4_avx512,
                     &detail::bind_bundle_majority_avx512,
                     &detail::bundle_accumulate_avx512});
  }
  if (__builtin_cpu_supports("avx2")) {
    tiers.push_back({"avx2", &detail::hamming_avx2,
                     &detail::hamming4_avx2,
                     &detail::bind_bundle_majority_avx2,
                     &detail::bundle_accumulate_avx2});
  }
#endif
  tiers.push_back({"scalar", &detail::hamming_scalar,
                   &detail::hamming4_scalar,
                   &detail::bind_bundle_majority_scalar,
                   &detail::bundle_accumulate_scalar});
  return tiers;
}

}  // namespace

std::span<const KernelTier> supported_kernel_tiers() {
  static const std::vector<KernelTier> tiers = probe_tiers();
  return tiers;
}

const KernelTier& kernel_tier() {
  static const KernelTier& selected = supported_kernel_tiers().front();
  return selected;
}

}  // namespace lehdc::hv
