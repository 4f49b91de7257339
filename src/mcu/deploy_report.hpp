// Deployment report: the per-design row of the paper's tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/mcu/board.hpp"

namespace ataman {

struct LayerProfile {
  std::string kind;      // "conv", "pool", "fc", "softmax", "dispatch"
  int64_t cycles = 0;
  int64_t macs = 0;
};

struct DeployReport {
  std::string design;          // e.g. "cmsis-nn", "ataman(0%)", "x-cube-ai"
  std::string network;
  // Paper topology notation, generalized to compact block form: plain
  // chain segments keep the "3-2-2" counts, residual blocks appear as
  // bracketed groups (e.g. "1-[r1]-1-[r1]-1-1" for the mobilenetv2 zoo
  // entry, [rN] = N inverted-residual blocks with a QAdd skip edge).
  std::string topology;
  double top1_accuracy = 0.0;  // fraction in [0,1]
  int64_t cycles = 0;
  double latency_ms = 0.0;
  int64_t mac_ops = 0;         // executed (non-skipped) conv+fc MACs
  int64_t flash_bytes = 0;
  double flash_percent = 0.0;  // of board flash capacity
  int64_t ram_bytes = 0;
  double energy_mj = 0.0;
  bool fits_flash = true;
  bool fits_ram = true;
  std::vector<LayerProfile> per_layer;

  void finalize(const BoardSpec& board) {
    latency_ms = board.cycles_to_ms(cycles);
    energy_mj = board.energy_mj(cycles);
    flash_percent = 100.0 * static_cast<double>(flash_bytes) /
                    static_cast<double>(board.flash_bytes);
    fits_flash = flash_bytes <= board.flash_bytes;
    fits_ram = ram_bytes <= board.ram_bytes;
  }
};

}  // namespace ataman
