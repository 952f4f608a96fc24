// Per-layer replays of the traced run.
//
// Every number here is a span around one call into a module's public
// entry point, recorded by the benchmark. Layers a call does not expose
// (the kernels inside encoder_layer_forward_into) are timed by calling
// the same public kernels separately on the same shapes and operands; a
// self time is then the enclosing span minus those separately timed
// kernels. Functional requests replay single-threaded, in stream order,
// until each part's time budget or count cap is reached (the caps keep the
// trace file to a few hundred thousand spans).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/softmax_engine.hpp"
#include "nn/workspace.hpp"
#include "util/math.hpp"
#include "xbar/cam_sub.hpp"

namespace starbench {

namespace {

using star::nn::ConstTensorView;
using star::nn::Tensor;
using star::nn::TensorView;
using star::nn::view_of;

/// The softmax the attention kernels call, timed per row: each row is a
/// "nn.softmax" span under the kernel span that invoked it.
class TimedSoftmax final : public star::nn::RowSoftmaxInto {
 public:
  TimedSoftmax(const star::core::SoftmaxEngine& engine, star::core::SoftmaxRunState& run,
               Trace& trace)
      : inner_(engine, run), trace_(trace) {}

  void operator()(std::span<const double> x, std::span<double> out) override {
    const auto t0 = Clock::now();
    inner_(x, out);
    trace_.add("nn.softmax", t0, Clock::now(), parent, request);
  }
  [[nodiscard]] const char* name() const override { return "timed-star"; }

  std::uint32_t parent = 0;
  std::int64_t request = -1;

 private:
  star::core::SoftmaxEngineRowRef inner_;
  Trace& trace_;
};

/// Runs `fn` inside a span and returns the span id.
template <typename Fn>
std::uint32_t timed(Trace& trace, const char* name, std::uint32_t parent,
                    std::int64_t request, Fn&& fn) {
  const std::uint32_t id = trace.open(name, Clock::now(), parent, request);
  fn();
  trace.close(id, Clock::now());
  return id;
}

constexpr std::size_t kMaxNnRequests = 200;
constexpr std::size_t kMaxSoftmaxRows = 10000;

bool over_budget(Clock::time_point start, double budget_s, std::size_t done) {
  return done > 0 && seconds_between(start, Clock::now()) >= budget_s;
}

double total_us(const std::map<std::string, Trace::Totals>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_us;
}

/// core.encoder_one / core.encoder_one_into: the served entry point and
/// its caller-workspace variant on each replayed request.
std::size_t replay_encoder(const star::core::BatchEncoderSim& model,
                           const RequestStream& stream, Trace& trace) {
  star::core::EncoderWorkspace ws;
  Tensor out;
  {
    // Warm the caller workspace to the histogram's longest request.
    RequestSpec spec = stream.at(0);
    spec.seq_len = stream.histogram().max_len();
    model.run_encoder_one_into(RequestStream::input(spec, model.bert().d_model),
                               star::workload::sequence_seed(spec.run_seed, 0), out,
                               kLayers, 1, star::workload::Dataset::kDefault,
                               nullptr, &ws);
  }
  const auto start = Clock::now();
  std::size_t n = 0;
  for (; !over_budget(start, kReplaySeconds, n); ++n) {
    const RequestSpec spec = stream.at(n);
    const Tensor input = RequestStream::input(spec, model.bert().d_model);
    const std::uint64_t seed = star::workload::sequence_seed(spec.run_seed, 0);
    const auto req = static_cast<std::int64_t>(spec.index);
    const std::uint32_t root = trace.open("replay.encoder", Clock::now(), 0, req);
    Tensor a;
    timed(trace, "core.encoder_one", root, req,
          [&] { a = model.run_encoder_one(input, seed, kLayers); });
    timed(trace, "core.encoder_one_into", root, req, [&] {
      model.run_encoder_one_into(input, seed, out, kLayers, 1,
                                 star::workload::Dataset::kDefault, nullptr, &ws);
    });
    trace.close(root, Clock::now());
  }
  return n;
}

/// The nn kernels of each replayed request, layer by layer.
std::size_t replay_nn(const star::core::BatchEncoderSim& model,
                      const RequestStream& stream, Trace& trace,
                      std::vector<std::vector<double>>& rows_out) {
  const auto& bert = model.bert();
  const auto d_model = static_cast<std::size_t>(bert.d_model);
  const auto d_ff = static_cast<std::size_t>(bert.d_ff);
  star::nn::Workspace arena;
  arena.require_capacity(star::nn::encoder_workspace_doubles(
      bert, static_cast<std::size_t>(stream.histogram().max_len())));
  star::core::SoftmaxRunState run;
  TimedSoftmax softmax(model.softmax_engine(), run, trace);
  star::Rng reservoir(0x5A3B1E);
  std::uint64_t rows_seen = 0;
  std::size_t replica_mismatches = 0;

  const auto start = Clock::now();
  std::size_t n = 0;
  for (; n < kMaxNnRequests && !over_budget(start, kReplaySeconds, n); ++n) {
    const RequestSpec spec = stream.at(n);
    const auto req = static_cast<std::int64_t>(spec.index);
    const auto seq = static_cast<std::size_t>(spec.seq_len);
    Tensor x = RequestStream::input(spec, bert.d_model);
    run.reseed(star::workload::sequence_seed(spec.run_seed, 0));
    const std::uint32_t root = trace.open("replay.nn", Clock::now(), 0, req);
    softmax.request = req;
    for (std::int64_t l = 0; l < kLayers; ++l) {
      const auto& w = model.layer_weights(l);
      const std::size_t heads = w.mha.heads, d_k = w.mha.d_k;
      Tensor y(seq, d_model), attn(seq, d_model);
      Tensor q(seq, heads * d_k), k(seq, heads * d_k), v(seq, heads * d_k);
      Tensor ctx(seq, heads * d_k), scores(seq, seq), probs(seq, seq);
      Tensor ff1(seq, d_ff), ff(seq, d_model), mha_out(seq, d_model), replica(seq, d_model);

      // The whole layer and the whole attention block, as served.
      arena.reset();
      {
        const std::uint32_t id = trace.open("nn.layer", Clock::now(), root, req);
        softmax.parent = id;
        star::nn::encoder_layer_forward_into(view_of(x), w, softmax, arena, view_of(y));
        trace.close(id, Clock::now());
      }
      arena.reset();
      {
        const std::uint32_t id = trace.open("nn.mha", Clock::now(), root, req);
        softmax.parent = id;
        star::nn::multi_head_attention_into(view_of(x), w.mha, softmax, arena,
                                            view_of(mha_out));
        trace.close(id, Clock::now());
      }

      // The same layer, kernel by kernel, on the same operands.
      timed(trace, "nn.qkv", root, req, [&] {
        star::nn::matmul_into(view_of(x), view_of(w.mha.wq), view_of(q));
        star::nn::matmul_into(view_of(x), view_of(w.mha.wk), view_of(k));
        star::nn::matmul_into(view_of(x), view_of(w.mha.wv), view_of(v));
      });
      for (std::size_t h = 0; h < heads; ++h) {
        const ConstTensorView qh = view_of(q).block_cols(h * d_k, d_k);
        const ConstTensorView kh = view_of(k).block_cols(h * d_k, d_k);
        const ConstTensorView vh = view_of(v).block_cols(h * d_k, d_k);
        timed(trace, "nn.scores", root, req,
              [&] { star::nn::matmul_transb_into(qh, kh, view_of(scores)); });
        star::nn::scale_inplace(view_of(scores), 1.0 / std::sqrt(static_cast<double>(d_k)));
        for (std::size_t r = 0; r < seq; ++r) {
          model.softmax_engine().softmax_row_into(scores.row(r), run, probs.row(r));
          // Uniform reservoir sample of every score row replayed, so the
          // softmax stage replay sees the workload's row-length mix.
          const auto row = scores.row(r);
          if (rows_out.size() < kMaxSoftmaxRows) {
            rows_out.emplace_back(row.begin(), row.end());
          } else if (const auto j = static_cast<std::size_t>(reservoir.uniform_int(
                         0, static_cast<std::int64_t>(rows_seen)));
                     j < kMaxSoftmaxRows) {
            rows_out[j].assign(row.begin(), row.end());
          }
          ++rows_seen;
        }
        const TensorView ctx_h{view_of(ctx).data + h * d_k, seq, d_k, view_of(ctx).stride};
        timed(trace, "nn.context", root, req,
              [&] { star::nn::matmul_into(view_of(probs), vh, ctx_h); });
      }
      timed(trace, "nn.out_proj", root, req,
            [&] { star::nn::matmul_into(view_of(ctx), view_of(w.mha.wo), view_of(attn)); });
      timed(trace, "nn.add", root, req,
            [&] { star::nn::add_into(view_of(x), view_of(attn), view_of(attn)); });
      timed(trace, "nn.layer_norm", root, req,
            [&] { star::nn::layer_norm_into(view_of(attn), view_of(attn)); });
      timed(trace, "nn.ffn", root, req, [&] {
        star::nn::matmul_into(view_of(attn), view_of(w.w_ff1), view_of(ff1));
        star::nn::gelu_inplace(view_of(ff1));
        star::nn::matmul_into(view_of(ff1), view_of(w.w_ff2), view_of(ff));
      });
      timed(trace, "nn.add", root, req,
            [&] { star::nn::add_into(view_of(attn), view_of(ff), view_of(ff)); });
      timed(trace, "nn.layer_norm", root, req,
            [&] { star::nn::layer_norm_into(view_of(ff), view_of(replica)); });
      if (!Tensor::bit_identical(replica, y)) {
        ++replica_mismatches;
      }
      x = std::move(y);
    }
    trace.close(root, Clock::now());
  }
  if (replica_mismatches > 0) {
    std::printf("note: %zu kernel-by-kernel layer replicas differ from "
                "encoder_layer_forward_into; the nn.* split no longer mirrors "
                "the served layer\n",
                replica_mismatches);
  }
  return n;
}

/// Softmax engine stages on the sampled score rows: the engine's row
/// entry point, and the CAM/SUB max-find and subtraction plus the row cost
/// record on the same rows (a standalone crossbar at the engine format's
/// bit width; the row is quantised as the engine's input conditioning does).
std::size_t replay_softmax(const star::core::BatchEncoderSim& model,
                           const std::vector<std::vector<double>>& rows, Trace& trace) {
  const star::core::SoftmaxEngine& engine = model.softmax_engine();
  const star::fxp::QFormat& fmt = engine.format();
  const star::core::StarConfig& sc = model.config();
  const star::xbar::CamSubCrossbar cam(sc.tech, sc.device, fmt.total_bits());
  star::core::SoftmaxRunState run;
  star::Rng rng(0xCA3);
  std::vector<bool> match;
  star::xbar::MaxFindResult mf;
  std::vector<std::int64_t> codes, diffs;
  std::vector<double> out;
  const double res = fmt.resolution();
  const std::int64_t bias = std::int64_t{1} << (fmt.total_bits() - 1);
  const std::int64_t top = (std::int64_t{1} << fmt.total_bits()) - 1;

  const auto start = Clock::now();
  std::size_t n = 0;
  const std::size_t limit = std::min(rows.size(), kMaxSoftmaxRows);
  for (; n < limit && !over_budget(start, kReplaySeconds, n); ++n) {
    const std::vector<double>& x = rows[n];
    out.resize(x.size());
    codes.resize(x.size());
    diffs.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const auto c = static_cast<std::int64_t>(star::round_half_even(x[i] / res)) + bias;
      codes[i] = std::clamp<std::int64_t>(c, 0, top);
    }
    const std::uint32_t root = trace.open("replay.softmax", Clock::now());
    timed(trace, "softmax.row", root, -1, [&] { engine.softmax_row_into(x, run, out); });
    timed(trace, "softmax.maxfind", root, -1,
          [&] { cam.find_max_into(codes, sc.cam_miss_prob, rng, match, mf); });
    timed(trace, "softmax.subtract", root, -1, [&] { cam.subtract_into(mf, codes, diffs); });
    timed(trace, "softmax.row_stats", root, -1,
          [&] { (void)engine.compute_row_stats(static_cast<int>(x.size())); });
    trace.close(root, Clock::now());
  }
  return n;
}

/// Warm analytic lookups (timed in blocks; one call is ~0.1 us) and the
/// uncached cost walk a cache miss pays, on the workload's lengths.
void replay_analytic(const star::core::BatchEncoderSim& model,
                     const RequestStream& stream, Trace& trace, std::size_t& one_calls,
                     std::size_t& walk_calls) {
  constexpr std::size_t kBlock = 1024;
  std::vector<std::int64_t> lens(kSimRequests);
  for (std::size_t i = 0; i < lens.size(); ++i) {
    lens[i] = stream.at(i).seq_len;
  }
  for (const std::int64_t len : lens) {
    (void)model.run_analytic_one(len);  // warm every length first
  }
  const auto start = Clock::now();
  one_calls = 0;
  while (one_calls < lens.size() && !over_budget(start, kReplaySeconds / 2, one_calls)) {
    timed(trace, "core.analytic_one", 0, -1, [&] {
      for (std::size_t i = 0; i < kBlock; ++i) {
        (void)model.run_analytic_one(lens[(one_calls + i) % lens.size()]);
      }
    });
    one_calls += kBlock;
  }
  const auto walk_start = Clock::now();
  walk_calls = 0;
  for (; walk_calls < lens.size() &&
         !over_budget(walk_start, kReplaySeconds / 2, walk_calls);
       ++walk_calls) {
    timed(trace, "core.analytic_walk", 0, -1, [&] {
      (void)model.accelerator().run_attention_layer(model.bert(), lens[walk_calls]);
    });
  }
}

/// Tracing overhead: the served layer stack (encoder_layer_forward_into
/// per layer) on the same requests twice, untraced with the engine's plain
/// row softmax and traced the way replay_nn traces it (a span per layer
/// and per softmax row, into a scratch recorder), alternating which runs
/// first. Returns traced time / untraced time - 1; `requests` is the count.
double trace_overhead(const star::core::BatchEncoderSim& model, const RequestStream& stream,
                      std::size_t& requests) {
  constexpr std::size_t kMaxRequests = 2000;
  const auto& bert = model.bert();
  const auto d_model = static_cast<std::size_t>(bert.d_model);
  star::nn::Workspace arena;
  arena.require_capacity(star::nn::encoder_workspace_doubles(
      bert, static_cast<std::size_t>(stream.histogram().max_len())));
  star::core::SoftmaxRunState run;
  Trace scratch(true);
  TimedSoftmax traced_softmax(model.softmax_engine(), run, scratch);
  star::core::SoftmaxEngineRowRef plain_softmax(model.softmax_engine(), run);
  double plain_s = 0.0, traced_s = 0.0;
  std::size_t differ = 0;

  // The layer stack on one request; returns its output, adds the time
  // spent inside the layer calls (and their spans) to `elapsed_s`.
  const auto stack = [&](const RequestSpec& spec, bool traced, double& elapsed_s) {
    Tensor x = RequestStream::input(spec, bert.d_model);
    run.reseed(star::workload::sequence_seed(spec.run_seed, 0));
    const auto req = static_cast<std::int64_t>(spec.index);
    for (std::int64_t l = 0; l < kLayers; ++l) {
      Tensor y(static_cast<std::size_t>(spec.seq_len), d_model);
      arena.reset();
      const auto t0 = Clock::now();
      if (traced) {
        const std::uint32_t id = scratch.open("nn.layer", t0, 0, req);
        traced_softmax.parent = id;
        traced_softmax.request = req;
        star::nn::encoder_layer_forward_into(view_of(x), model.layer_weights(l),
                                             traced_softmax, arena, view_of(y));
        scratch.close(id, Clock::now());
      } else {
        star::nn::encoder_layer_forward_into(view_of(x), model.layer_weights(l),
                                             plain_softmax, arena, view_of(y));
      }
      elapsed_s += seconds_between(t0, Clock::now());
      x = std::move(y);
    }
    return x;
  };

  const auto start = Clock::now();
  requests = 0;
  for (; requests < kMaxRequests && !over_budget(start, kReplaySeconds, requests);
       ++requests) {
    const RequestSpec spec = stream.at(requests);
    const bool traced_first = requests % 2 == 1;
    const Tensor first = stack(spec, traced_first, traced_first ? traced_s : plain_s);
    const Tensor second = stack(spec, !traced_first, traced_first ? plain_s : traced_s);
    differ += Tensor::bit_identical(first, second) ? 0 : 1;
  }
  if (differ > 0) {
    std::printf("note: %zu traced layer stacks differ from the untraced ones\n", differ);
  }
  return plain_s > 0.0 ? traced_s / plain_s - 1.0 : 0.0;
}

}  // namespace

void replay_layers(const star::core::BatchEncoderSim& functional,
                   const star::core::BatchEncoderSim& analytic,
                   const RequestStream& stream, Trace& trace, std::vector<Metric>& out) {
  const std::size_t enc_n = replay_encoder(functional, stream, trace);
  std::vector<std::vector<double>> rows;
  const std::size_t nn_n = replay_nn(functional, stream, trace, rows);
  const std::size_t row_n = replay_softmax(functional, rows, trace);
  std::size_t one_calls = 0, walk_calls = 0;
  replay_analytic(analytic, stream, trace, one_calls, walk_calls);
  std::size_t overhead_n = 0;
  const double overhead = trace_overhead(functional, stream, overhead_n);
  std::printf("replayed: %zu requests through core.encoder_one*, %zu through the nn "
              "kernels, %zu softmax rows, %zu warm analytic lookups, %zu cost walks\n",
              enc_n, nn_n, row_n, one_calls, walk_calls);
  std::printf("tracing overhead: %+.2f%% on the encoder layer stack of %zu requests "
              "(traced as replay.nn traces it vs untraced, interleaved)\n",
              100.0 * overhead, overhead_n);
  out.push_back({"trace.overhead", overhead, "ratio"});

  const auto t = trace.totals();
  const auto per = [](double us, std::size_t n) {
    return n > 0 ? us / static_cast<double>(n) : 0.0;
  };
  out.push_back({"core.encoder_one_us", per(total_us(t, "core.encoder_one"), enc_n), "us"});
  out.push_back({"core.encoder_one_into_us", per(total_us(t, "core.encoder_one_into"), enc_n),
                 "us"});
  out.push_back({"core.analytic_one_us", per(total_us(t, "core.analytic_one"), one_calls),
                 "us"});
  out.push_back({"core.analytic_walk_us", per(total_us(t, "core.analytic_walk"), walk_calls),
                 "us"});

  const double row = per(total_us(t, "softmax.row"), row_n);
  const double maxfind = per(total_us(t, "softmax.maxfind"), row_n);
  const double subtract = per(total_us(t, "softmax.subtract"), row_n);
  const double row_stats = per(total_us(t, "softmax.row_stats"), row_n);
  out.push_back({"softmax.row_us", row, "us"});
  out.push_back({"softmax.maxfind_us", maxfind, "us"});
  out.push_back({"softmax.subtract_us", subtract, "us"});
  out.push_back({"softmax.row_stats_us", row_stats, "us"});
  out.push_back({"softmax.self_us", row - maxfind - subtract - row_stats, "us"});

  // nn.* are microseconds per request, summed over the request's layers
  // and heads. The in-kernel softmax rows are children of nn.layer/nn.mha.
  const double qkv = per(total_us(t, "nn.qkv"), nn_n);
  const double scores = per(total_us(t, "nn.scores"), nn_n);
  const double context = per(total_us(t, "nn.context"), nn_n);
  const double out_proj = per(total_us(t, "nn.out_proj"), nn_n);
  const double ffn = per(total_us(t, "nn.ffn"), nn_n);
  const double add = per(total_us(t, "nn.add"), nn_n);
  const double ln = per(total_us(t, "nn.layer_norm"), nn_n);
  const double mha = per(total_us(t, "nn.mha"), nn_n);
  const double layer = per(total_us(t, "nn.layer"), nn_n);
  const auto mha_it = t.find("nn.mha");
  const double mha_softmax_free =
      mha_it == t.end() ? 0.0 : per(mha_it->second.self_us, nn_n);
  out.push_back({"nn.qkv_us", qkv, "us"});
  out.push_back({"nn.out_proj_us", out_proj, "us"});
  out.push_back({"nn.ffn_us", ffn, "us"});
  out.push_back({"nn.scores_us", scores, "us"});
  out.push_back({"nn.context_us", context, "us"});
  out.push_back({"nn.layer_norm_us", ln, "us"});
  out.push_back({"nn.add_us", add, "us"});
  out.push_back({"nn.mha_us", mha, "us"});
  out.push_back({"nn.layer_us", layer, "us"});
  out.push_back({"nn.mha_self_us", mha_softmax_free - qkv - scores - context - out_proj, "us"});
  out.push_back({"nn.layer_self_us", layer - mha - ffn - add - ln, "us"});

  // Exact counts from tensor shapes, over the stream's first sim_requests.
  const auto& bert = functional.bert();
  const double d = static_cast<double>(bert.d_model), dff = static_cast<double>(bert.d_ff);
  const double heads = static_cast<double>(bert.heads), dk = static_cast<double>(bert.d_head());
  const double layers = static_cast<double>(kLayers);
  double macs = 0.0, rows_n = 0.0, elems = 0.0;
  for (std::size_t i = 0; i < kSimRequests; ++i) {
    const double L = static_cast<double>(stream.at(i).seq_len);
    macs += layers * (4.0 * L * d * d + 2.0 * heads * L * L * dk + 2.0 * L * d * dff);
    rows_n += layers * heads * L;
    elems += layers * heads * L * L;
  }
  const double n = static_cast<double>(kSimRequests);
  out.push_back({"nn.macs_per_req", macs / n, "count"});
  out.push_back({"softmax.rows_per_req", rows_n / n, "count"});
  out.push_back({"softmax.elements_per_req", elems / n, "count"});
}

}  // namespace starbench
