// E9 — google-benchmark microbenchmarks of the simulator's functional
// primitives: how fast the *simulation* executes (host-side throughput),
// useful for sizing larger experiments.
#include <benchmark/benchmark.h>

#include "baseline/cmos_softmax.hpp"
#include "baseline/softermax.hpp"
#include "core/matmul_engine.hpp"
#include "core/softmax_engine.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"
#include "workload/dataset_profile.hpp"
#include "xbar/cam_sub.hpp"
#include "xbar/vmm_engine.hpp"

namespace {

using namespace star;

std::vector<double> sample_row(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return workload::DatasetProfile::cnews().sample_row(n, rng);
}

void BM_ExactSoftmax(benchmark::State& state) {
  const auto row = sample_row(static_cast<std::size_t>(state.range(0)), 1);
  std::vector<double> out(row.size());
  for (auto _ : state) {
    nn::softmax_into(row, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactSoftmax)->Arg(128)->Arg(512);

void BM_StarSoftmaxEngine(benchmark::State& state) {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine eng(cfg);
  core::SoftmaxRunState run;
  const auto row = sample_row(static_cast<std::size_t>(state.range(0)), 2);
  std::vector<double> out(row.size());
  for (auto _ : state) {
    eng.softmax_row_into(row, run, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StarSoftmaxEngine)->Arg(128)->Arg(512);

void BM_Softermax(benchmark::State& state) {
  baseline::SoftermaxUnit unit(hw::TechNode::n32());
  const auto row = sample_row(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<double> out(row.size());
  for (auto _ : state) {
    unit(row, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Softermax)->Arg(128)->Arg(512);

void BM_CmosSoftmax(benchmark::State& state) {
  baseline::CmosSoftmaxUnit unit(hw::TechNode::n32());
  const auto row = sample_row(static_cast<std::size_t>(state.range(0)), 4);
  std::vector<double> out(row.size());
  for (auto _ : state) {
    unit(row, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CmosSoftmax)->Arg(128);

void BM_CamSubMaxFind(benchmark::State& state) {
  xbar::CamSubCrossbar cs(hw::TechNode::n32(), xbar::RramDevice::ideal(2), 9);
  Rng rng(5);
  std::vector<std::int64_t> codes(static_cast<std::size_t>(state.range(0)));
  for (auto& c : codes) {
    c = rng.uniform_int(0, 511);
  }
  xbar::MaxFindResult mf;
  for (auto _ : state) {
    cs.find_max_into(codes, 0.0, rng, mf);
    benchmark::DoNotOptimize(mf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CamSubMaxFind)->Arg(128)->Arg(512);

void BM_BitSlicedVmm(benchmark::State& state) {
  xbar::VmmConfig cfg;
  cfg.rows = 128;
  cfg.cols = 128;
  cfg.ideal_readout = true;
  cfg.adc_bits = 8;
  xbar::BitSlicedVmm vmm(hw::TechNode::n32(), xbar::RramDevice::ideal(2), cfg);
  Rng rng(6);
  std::vector<std::vector<std::int64_t>> w(128,
                                           std::vector<std::int64_t>(vmm.logical_cols()));
  for (auto& row : w) {
    for (auto& v : row) {
      v = rng.uniform_int(0, 255);
    }
  }
  vmm.program_weights(w);
  std::vector<std::int64_t> x(128);
  for (auto& v : x) {
    v = rng.uniform_int(0, 255);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmm.multiply(x));
  }
  state.SetItemsProcessed(state.iterations() * 128 * vmm.logical_cols());
}
BENCHMARK(BM_BitSlicedVmm);

void BM_AttentionWithStarSoftmax(benchmark::State& state) {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine eng(cfg);
  core::SoftmaxRunState run;
  core::SoftmaxEngineRowRef softmax(eng, run);
  Rng rng(7);
  const auto w = nn::MhaWeights::random(1, 64, 64, rng);
  const auto x = nn::Tensor::randn(32, 64, rng);
  nn::Workspace ws;
  ws.require_capacity(1 << 16);
  nn::Tensor out(32, 64);
  for (auto _ : state) {
    nn::multi_head_attention_into(nn::view_of(x), w, softmax, ws, nn::view_of(out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AttentionWithStarSoftmax);

void BM_MatmulEngineFunctional(benchmark::State& state) {
  core::MatmulEngine eng((core::StarConfig()));
  Rng rng(8);
  const auto x = nn::Tensor::randn(8, 128, rng);
  const auto w = nn::Tensor::randn(128, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.multiply(x, w));
  }
}
BENCHMARK(BM_MatmulEngineFunctional);

}  // namespace
