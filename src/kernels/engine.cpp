#include "src/kernels/engine.hpp"

#include <string>

namespace nsc::kernels {

Engine::Engine(const core::Network& net, obs::Registry& metrics, int profile_owners)
    : net_(net),
      prng_(net.seed),
      kern_(&select_kernels()),
      ncores_(static_cast<std::size_t>(net.geom.total_cores())),
      hot_ok_(ncores_, 0),
      hot_(ncores_ * core::kHotStride, 0),
      wtab_(ncores_ * core::kWeightTabPerCore, 0),
      fire_(ncores_ * core::kCoreSize, core::HotFire{}),
      rowpop_(ncores_ * core::kCoreSize, 0),
      profile_(static_cast<std::size_t>(profile_owners) * ncores_) {
  ctr_isa_ = &metrics.counter(std::string("kernel.isa_") + isa_name(kern_->isa));
  *ctr_isa_ = 1;
  ctr_dispatch_[0] = &metrics.counter("kernel.dispatch_sparse");
  ctr_dispatch_[1] = &metrics.counter("kernel.dispatch_hybrid");
  ctr_dispatch_[2] = &metrics.counter("kernel.dispatch_dense");
  for (int b = 0; b < 8; ++b) {
    ctr_density_[b] = &metrics.counter("kernel.density_b" + std::to_string(b));
  }
}

void Engine::reset() {
  std::fill(hot_ok_.begin(), hot_ok_.end(), 0);
  std::fill(profile_.begin(), profile_.end(), CoreProfile{});
}

void Engine::prepare(core::CoreId c, int enabled_count, const std::int32_t* vrow) {
  const auto ci = static_cast<std::size_t>(c);
  const core::CoreSpec& spec = net_.core(c);
  if (!core::core_hot_eligible(spec, enabled_count) ||
      (vrow != nullptr && !core::hot_potentials_safe(vrow))) {
    hot_ok_[ci] = 0;
    return;
  }
  hot_ok_[ci] = 1;
  core::fill_hot_core(spec, &hot_[ci * core::kHotStride], &wtab_[ci * core::kWeightTabPerCore]);
  core::fill_hot_fire(spec, &fire_[ci * core::kCoreSize]);
  for (int i = 0; i < core::kCoreSize; ++i) {
    rowpop_[ci * core::kCoreSize + static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>(spec.crossbar.row(i).count());
  }
}

void Engine::fold(KernelTally& t) noexcept {
  for (int s = 0; s < 3; ++s) *ctr_dispatch_[s] += t.dispatch[s];
  for (int b = 0; b < 8; ++b) *ctr_density_[b] += t.density[b];
  t = KernelTally{};
}

}  // namespace nsc::kernels
